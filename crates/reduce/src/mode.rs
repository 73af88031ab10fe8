//! Reduction mode selection (`--reduce {none,por}`).

use std::fmt;
use std::str::FromStr;

/// Whether exploration unfolds the reduced system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReduceMode {
    /// No reduction: the plain most general client is explored.
    #[default]
    None,
    /// Ample-set partial-order reduction.
    Por,
}

impl fmt::Display for ReduceMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ReduceMode::None => "none",
            ReduceMode::Por => "por",
        })
    }
}

/// Parses `none` and `por`. The retired modes `sym` and `full` (thread
/// symmetry alone, and symmetry plus POR) still parse, as `none` and `por`
/// respectively, with a one-line stderr note: old command lines, journal
/// lines and checkpoints must stay readable. Their `Display` is that of the
/// mode they map onto, so cache keys and checkpoint tags written under the
/// retired names never match and are recomputed.
impl FromStr for ReduceMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "none" => Ok(ReduceMode::None),
            "por" => Ok(ReduceMode::Por),
            "sym" => {
                eprintln!(
                    "note: --reduce sym is retired (thread-symmetry reduction was removed); \
                     running --reduce none"
                );
                Ok(ReduceMode::None)
            }
            "full" => {
                eprintln!(
                    "note: --reduce full is retired (thread symmetry was removed); \
                     running --reduce por"
                );
                Ok(ReduceMode::Por)
            }
            other => Err(format!("unknown reduction mode `{other}` (expected none|por)")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_roundtrip() {
        for m in [ReduceMode::None, ReduceMode::Por] {
            assert_eq!(m.to_string().parse::<ReduceMode>().unwrap(), m);
        }
        assert!("por2".parse::<ReduceMode>().is_err());
    }

    #[test]
    fn retired_modes_map_onto_live_ones() {
        assert_eq!("sym".parse::<ReduceMode>().unwrap(), ReduceMode::None);
        assert_eq!("full".parse::<ReduceMode>().unwrap(), ReduceMode::Por);
    }
}
