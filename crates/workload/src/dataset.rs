//! Benchmark dataset statistics (paper Table II).

/// Input context-length statistics of one benchmark task.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DatasetStats {
    /// Task name.
    pub name: &'static str,
    /// Suite the task belongs to.
    pub suite: &'static str,
    /// Mean context length in tokens.
    pub mean: f64,
    /// Standard deviation in tokens.
    pub std: f64,
    /// Maximum observed context length.
    pub max: u64,
    /// Minimum observed context length.
    pub min: u64,
}

/// The four evaluation tasks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dataset {
    /// LongBench QMSum (meeting summarization).
    QmSum,
    /// LongBench Musique (multi-hop QA).
    Musique,
    /// LV-Eval multifieldqa.
    MultiFieldQa,
    /// LV-Eval Loogle-SD.
    LoogleSd,
}

impl Dataset {
    /// All Table II tasks.
    pub const ALL: [Dataset; 4] = [
        Dataset::QmSum,
        Dataset::Musique,
        Dataset::MultiFieldQa,
        Dataset::LoogleSd,
    ];

    /// The Table II statistics for this task.
    pub fn stats(self) -> DatasetStats {
        match self {
            Dataset::QmSum => DatasetStats {
                name: "QMSum",
                suite: "LongBench",
                mean: 13_966.0,
                std: 6_182.0,
                max: 30_456,
                min: 2_651,
            },
            Dataset::Musique => DatasetStats {
                name: "Musique",
                suite: "LongBench",
                mean: 16_362.0,
                std: 1_651.0,
                max: 17_917,
                min: 6_820,
            },
            Dataset::MultiFieldQa => DatasetStats {
                name: "multifieldqa",
                suite: "LV-Eval",
                mean: 60_780.0,
                std: 31_025.0,
                max: 119_480,
                min: 20_333,
            },
            Dataset::LoogleSd => DatasetStats {
                name: "Loogle-SD",
                suite: "LV-Eval",
                mean: 50_693.0,
                std: 26_506.0,
                max: 109_221,
                min: 13_347,
            },
        }
    }

    /// Tasks of the LongBench suite (used for non-GQA models).
    pub fn longbench() -> [Dataset; 2] {
        [Dataset::QmSum, Dataset::Musique]
    }

    /// Tasks of the LV-Eval suite (used for GQA models).
    pub fn lv_eval() -> [Dataset; 2] {
        [Dataset::MultiFieldQa, Dataset::LoogleSd]
    }

    /// Task name.
    pub fn name(self) -> &'static str {
        self.stats().name
    }
}

impl std::fmt::Display for Dataset {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_match_table2() {
        let q = Dataset::QmSum.stats();
        assert_eq!(q.mean, 13_966.0);
        assert_eq!(q.max, 30_456);
        let l = Dataset::LoogleSd.stats();
        assert_eq!(l.min, 13_347);
        assert_eq!(l.suite, "LV-Eval");
    }

    #[test]
    fn bounds_are_consistent() {
        for d in Dataset::ALL {
            let s = d.stats();
            assert!(s.min < s.max);
            assert!((s.min as f64) < s.mean && s.mean < s.max as f64, "{d}");
            assert!(s.std > 0.0);
        }
    }

    #[test]
    fn suites_partition_tasks() {
        let mut all: Vec<_> = Dataset::longbench()
            .into_iter()
            .chain(Dataset::lv_eval())
            .collect();
        all.sort_by_key(|d| d.name());
        let mut expect: Vec<_> = Dataset::ALL.into();
        expect.sort_by_key(|d| d.name());
        assert_eq!(all, expect);
    }
}
