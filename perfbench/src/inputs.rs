//! The raw input files one run queries: a `Patients` CSV and a `Genetics`
//! NDJSON file under the checkout's `.bench_data/`, written from the
//! repository's fixture generators and removed when the run ends.

use std::fs::{File, OpenOptions};
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};
use vida_bench::fixtures;
use vida_core::formats::csv::CsvFile;
use vida_core::formats::json::JsonFile;
use vida_core::formats::plugin::{CsvPlugin, JsonPlugin};
use vida_core::formats::MapMode;
use vida_core::MemoryCatalog;

/// Rows generated per write. The generators build each chunk as one
/// buffer, so this bounds the benchmark's own memory: fixture generation
/// must not set the process's peak RSS.
const CHUNK_ROWS: usize = 8192;

pub struct Inputs {
    dir: PathBuf,
    pub patients: PathBuf,
    pub genetics: PathBuf,
    /// Rows currently in each file.
    pub rows: usize,
    /// Sum of the `age` column over the rows written: with `rows`, the
    /// exact answers of the append-replay batch's two fixed folds.
    pub age_sum: i64,
    patients_seed: u64,
    genetics_seed: u64,
    /// `(rows, age_sum, patients bytes, genetics bytes)` as created.
    base: (usize, i64, u64, u64),
}

impl Inputs {
    /// Write `rows` rows to each input under `root/.bench_data/<tag>-<pid>`.
    pub fn create(tag: &str, rows: usize, seed: u64) -> io::Result<Inputs> {
        let dir = Path::new(".bench_data").join(format!("{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        let inputs = Inputs {
            patients: dir.join("patients.csv"),
            genetics: dir.join("genetics.json"),
            dir,
            rows: 0,
            age_sum: 0,
            patients_seed: derive_seed(seed, 1),
            genetics_seed: derive_seed(seed, 2),
            base: (0, 0, 0, 0),
        };
        File::create(&inputs.patients)?;
        File::create(&inputs.genetics)?;
        let mut inputs = inputs;
        inputs.append(rows)?;
        inputs.base = (
            rows,
            inputs.age_sum,
            std::fs::metadata(&inputs.patients)?.len(),
            std::fs::metadata(&inputs.genetics)?.len(),
        );
        Ok(inputs)
    }

    /// Truncate both inputs back to the rows `create` wrote.
    pub fn reset(&mut self) -> io::Result<()> {
        let (rows, age_sum, patients_len, genetics_len) = self.base;
        OpenOptions::new()
            .write(true)
            .open(&self.patients)?
            .set_len(patients_len)?;
        OpenOptions::new()
            .write(true)
            .open(&self.genetics)?
            .set_len(genetics_len)?;
        self.rows = rows;
        self.age_sum = age_sum;
        Ok(())
    }

    /// Append `extra` rows to every input. The `*_rows` generators replay
    /// the earlier rows' random draws, so the grown files are exactly the
    /// files a fresh `create` with the larger row count would write.
    pub fn append(&mut self, extra: usize) -> io::Result<()> {
        let (lo, hi) = (self.rows, self.rows + extra);
        let mut patients = BufWriter::new(OpenOptions::new().append(true).open(&self.patients)?);
        let mut genetics = BufWriter::new(OpenOptions::new().append(true).open(&self.genetics)?);
        for start in (lo..hi).step_by(CHUNK_ROWS) {
            let end = (start + CHUNK_ROWS).min(hi);
            let rows = fixtures::patients_csv_rows(start, end, self.patients_seed);
            self.age_sum += String::from_utf8_lossy(&rows)
                .lines()
                .filter_map(|line| line.split(',').nth(1)?.parse::<i64>().ok())
                .sum::<i64>();
            patients.write_all(&rows)?;
            genetics.write_all(&fixtures::genetics_json_rows(
                start,
                end,
                self.genetics_seed,
            ))?;
        }
        patients.flush()?;
        genetics.flush()?;
        self.rows = hi;
        Ok(())
    }

    /// Total bytes of raw input on disk.
    pub fn raw_bytes(&self) -> u64 {
        [&self.patients, &self.genetics]
            .iter()
            .map(|p| std::fs::metadata(p).map(|m| m.len()).unwrap_or(0))
            .sum()
    }

    /// Open both inputs as memory-mapped plugins (the default backing) in
    /// a fresh catalog; also returns the time `open_with` took.
    pub fn open_catalog(&self) -> vida_core::Result<(MemoryCatalog, Duration)> {
        let t0 = Instant::now();
        let patients = CsvFile::open_with(
            "Patients",
            &self.patients,
            b',',
            true,
            fixtures::patients_schema(),
            MapMode::Auto,
        )?;
        let genetics = JsonFile::open_with(
            "Genetics",
            &self.genetics,
            fixtures::genetics_schema(),
            MapMode::Auto,
        )?;
        let open = t0.elapsed();
        let catalog = MemoryCatalog::new();
        catalog.register(Arc::new(CsvPlugin::new(patients)));
        catalog.register(Arc::new(JsonPlugin::new(genetics)));
        Ok((catalog, open))
    }
}

impl Drop for Inputs {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
        // Leave `.bench_data` itself only if another run still uses it.
        let _ = std::fs::remove_dir(".bench_data");
    }
}

/// Mix the run seed with a stream id (splitmix64), so every generator
/// gets its own nonzero seed from the one `--seed` argument.
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)).max(1)
}
