//! Golden estimate bits.
//!
//! `perfbench/golden/<workload>.txt` holds one line per estimate the
//! workload can run: `<key> <mean_power_w IEEE bits, hex> <sample size>`.
//! The files were recorded with `--record-golden` and are compiled into the
//! binary. A run counts an estimate as failed when its bits or sample size
//! differ from the recorded ones, or when its key was never recorded: a
//! speed-up counts only if the estimates are unchanged.

use std::collections::BTreeMap;

use dipe::Estimate;

fn recorded(workload: &str) -> &'static str {
    match workload {
        "table1_scalar" => include_str!("../golden/table1_scalar.txt"),
        "breakdown_shards2" => include_str!("../golden/breakdown_shards2.txt"),
        "serve_mix" => include_str!("../golden/serve_mix.txt"),
        "megagate_blif" => include_str!("../golden/megagate_blif.txt"),
        _ => "",
    }
}

/// What one finished estimate is compared on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Bits {
    pub mean_power_w: u64,
    pub sample_size: u64,
}

impl Bits {
    pub fn of(estimate: &Estimate) -> Bits {
        Bits {
            mean_power_w: estimate.mean_power_w.to_bits(),
            sample_size: estimate.sample_size as u64,
        }
    }
}

/// The golden table of one workload, or a recorder for a new one.
pub struct Golden {
    workload: String,
    table: BTreeMap<String, Bits>,
    recording: bool,
}

impl Golden {
    /// The compiled-in table of `workload`; with `recording`, an empty
    /// table that [`check`](Self::check) fills instead of comparing.
    pub fn load(workload: &str, recording: bool) -> Golden {
        let mut table = BTreeMap::new();
        if !recording {
            for line in recorded(workload).lines() {
                let fields: Vec<&str> = line.split_whitespace().collect();
                if let [key, bits, samples] = fields[..] {
                    let bits = u64::from_str_radix(bits, 16).expect("golden bits are hex");
                    let samples = samples.parse().expect("golden sample size is an integer");
                    table.insert(
                        key.to_string(),
                        Bits {
                            mean_power_w: bits,
                            sample_size: samples,
                        },
                    );
                }
            }
        }
        Golden {
            workload: workload.to_string(),
            table,
            recording,
        }
    }

    /// Whether `bits` are the recorded bits of `key` (always true while
    /// recording, where the first result of each key is kept).
    pub fn check(&mut self, key: &str, bits: Bits) -> bool {
        if self.recording {
            return *self.table.entry(key.to_string()).or_insert(bits) == bits;
        }
        let ok = self.table.get(key) == Some(&bits);
        if !ok {
            eprintln!(
                "perfbench: {} estimate {key} gave bits {:016x}/{} against golden {:?}",
                self.workload,
                bits.mean_power_w,
                bits.sample_size,
                self.table.get(key)
            );
        }
        ok
    }

    /// Writes the recorded table to `perfbench/golden/<workload>.txt`.
    pub fn write(&self) -> std::io::Result<()> {
        let mut text = String::new();
        for (key, bits) in &self.table {
            text.push_str(&format!(
                "{key} {:016x} {}\n",
                bits.mean_power_w, bits.sample_size
            ));
        }
        let path = format!(
            "{}/golden/{}.txt",
            env!("CARGO_MANIFEST_DIR"),
            self.workload
        );
        std::fs::write(path, text)
    }
}
