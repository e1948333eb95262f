//! Shared helpers for the benchmark harness.
//!
//! The figure binaries (`fig8_footprint`, `fig9_tables`, `fig10_tpcb`,
//! `fig11_utilization`, `overheads`) regenerate the paper's evaluation
//! tables; the Criterion benches under `benches/` cover micro-operations
//! and the ablations DESIGN.md calls out.

#![forbid(unsafe_code)]

use chunk_store::{ChunkStore, ChunkStoreConfig};
use std::sync::Arc;
use tdb_platform::{MemSecretStore, MemStore, VolatileCounter};

pub mod proof_dump;
pub mod telemetry;

/// Fresh in-memory chunk store for benchmarks.
pub fn bench_chunk_store(cfg: ChunkStoreConfig) -> ChunkStore {
    ChunkStore::create(
        Arc::new(MemStore::new()),
        &MemSecretStore::from_label("bench"),
        Arc::new(VolatileCounter::new()),
        cfg,
    )
    .expect("create bench store")
}

/// Parse `NAME=value`-style arguments from the environment with a default
/// (keeps the figure binaries flag-light: `SCALE=1.0 TXNS=200000 fig10`).
pub fn env_f64(name: &str, default: f64) -> f64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Integer environment parameter.
pub fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Minimal ELF section-header parser: total size of `.text` (and any other
/// `SHF_EXECINSTR` sections) in a built binary — how the paper measures
/// code footprint ("the size of the .text segment on the x86 platform",
/// §6). Returns `None` if the file is not a readable 64-bit ELF.
pub fn elf_text_size(path: &std::path::Path) -> Option<u64> {
    fn u16le(data: &[u8], off: usize) -> Option<u64> {
        Some(u16::from_le_bytes(data.get(off..off + 2)?.try_into().ok()?) as u64)
    }
    fn u64le(data: &[u8], off: usize) -> Option<u64> {
        Some(u64::from_le_bytes(data.get(off..off + 8)?.try_into().ok()?))
    }

    let data = std::fs::read(path).ok()?;
    if data.len() < 64 || &data[..4] != b"\x7fELF" || data[4] != 2 {
        return None; // not a 64-bit ELF
    }
    let shoff = u64le(&data, 0x28)? as usize;
    let shentsize = u16le(&data, 0x3A)? as usize;
    let shnum = u16le(&data, 0x3C)? as usize;
    let mut text = 0u64;
    for i in 0..shnum {
        let base = shoff + i * shentsize;
        let flags = u64le(&data, base + 0x08)?;
        let size = u64le(&data, base + 0x20)?;
        const SHF_EXECINSTR: u64 = 0x4;
        if flags & SHF_EXECINSTR != 0 {
            text += size;
        }
    }
    Some(text)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_parsing_defaults() {
        assert_eq!(env_f64("DEFINITELY_UNSET_VAR_X", 0.5), 0.5);
        assert_eq!(env_u64("DEFINITELY_UNSET_VAR_Y", 7), 7);
    }

    #[test]
    fn elf_parser_reads_own_test_binary() {
        // The currently running test binary is an ELF with code in it.
        let exe = std::env::current_exe().unwrap();
        let text = elf_text_size(&exe).expect("parse own binary");
        assert!(text > 100_000, "own .text only {text} bytes?");
    }

    #[test]
    fn elf_parser_rejects_non_elf() {
        let dir = tempfile::tempdir().unwrap();
        let p = dir.path().join("not-elf");
        std::fs::write(&p, b"hello").unwrap();
        assert_eq!(elf_text_size(&p), None);
    }
}
