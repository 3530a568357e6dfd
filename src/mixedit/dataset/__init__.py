"""Catalog ingestion, split partitioning, manifest generation, batch
synthesis, and the external rephrase-service client."""

from .catalog import (
    BadMetadataRow,
    Catalog,
    CatalogEntry,
    DEFAULT_BLOCKLIST,
    EmptyCatalog,
    MissingFile,
    SplitAssignment,
    TooFewEntities,
    build_demo_catalog,
    ingest,
    partition,
)
from .manifest import (
    BadManifestLine,
    ExhaustedRetries,
    ManifestRecord,
    SCHEMA_VERSION,
    generate_manifest,
    load_manifest,
    write_manifest,
)
from .rephrase import (
    BadRephraseConfig,
    Disabled,
    MalformedResponse,
    MockRephraser,
    NetworkError,
    RephraseConfig,
    rephrase,
)
from .synth import BadWavFile, SynthesisSummary, read_wav, synthesize, write_wav

__all__ = [
    "BadMetadataRow", "Catalog", "CatalogEntry", "DEFAULT_BLOCKLIST",
    "EmptyCatalog", "MissingFile", "SplitAssignment", "TooFewEntities",
    "build_demo_catalog", "ingest", "partition",
    "BadManifestLine", "ExhaustedRetries", "ManifestRecord", "SCHEMA_VERSION",
    "generate_manifest", "load_manifest", "write_manifest",
    "BadRephraseConfig", "Disabled", "MalformedResponse", "MockRephraser",
    "NetworkError", "RephraseConfig", "rephrase",
    "BadWavFile", "SynthesisSummary", "read_wav", "synthesize", "write_wav",
]
