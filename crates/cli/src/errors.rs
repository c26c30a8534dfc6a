//! Typed CLI errors and the authoritative process exit-code table.
//!
//! | code | meaning                                                    |
//! |------|------------------------------------------------------------|
//! | 0    | success                                                    |
//! | 2    | usage / invalid input (bad flags, unparsable data, budget) |
//! | 3    | `bench diff --fail-on-regress` gate tripped                |
//! | 5    | unrecoverable I/O or corruption (also: watchdog stall on a |
//! |      | non-checkpointed run)                                      |
//! | 6    | resumable interrupt: a checkpointed run stopped at a chunk |
//! |      | boundary — rerun with `--resume RUN_DIR`                   |
//!
//! Code 4 is unassigned; the other codes keep their numbers because
//! scripts and tests depend on them.

use hpcpower_sim::CheckpointError;

/// Exit code for usage errors.
pub const EXIT_USAGE: i32 = 2;
/// Exit code for a gated benchmark regression.
pub const EXIT_BENCH_REGRESS: i32 = 3;
/// Exit code for unrecoverable I/O or corruption.
pub const EXIT_IO: i32 = 5;
/// Exit code for a resumable interrupt of a checkpointed run.
pub const EXIT_INTERRUPTED: i32 = 6;

/// A command failure, carrying which row of the exit-code table it maps
/// to. Most legacy paths produce `Usage` via `From<String>`; I/O paths
/// that no amount of flag-fixing can cure use [`CliError::io`].
#[derive(Debug)]
pub enum CliError {
    /// Bad flags or invalid input — exit 2.
    Usage(String),
    /// Benchmark gate tripped — exit 3.
    BenchRegress(String),
    /// Unrecoverable I/O or corruption — exit 5.
    Io(String),
    /// Resumable interrupt (checkpointed run) — exit 6.
    Interrupted(String),
}

impl CliError {
    /// The process exit code for this error.
    pub fn exit_code(&self) -> i32 {
        match self {
            CliError::Usage(_) => EXIT_USAGE,
            CliError::BenchRegress(_) => EXIT_BENCH_REGRESS,
            CliError::Io(_) => EXIT_IO,
            CliError::Interrupted(_) => EXIT_INTERRUPTED,
        }
    }

    /// An unrecoverable-I/O error (exit 5).
    pub fn io(msg: impl std::fmt::Display) -> Self {
        CliError::Io(msg.to_string())
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(m)
            | CliError::BenchRegress(m)
            | CliError::Io(m)
            | CliError::Interrupted(m) => write!(f, "{m}"),
        }
    }
}

impl From<String> for CliError {
    fn from(msg: String) -> Self {
        CliError::Usage(msg)
    }
}

impl From<&str> for CliError {
    fn from(msg: &str) -> Self {
        CliError::Usage(msg.to_string())
    }
}

impl From<CheckpointError> for CliError {
    fn from(e: CheckpointError) -> Self {
        match e {
            CheckpointError::Config(_) => CliError::Usage(e.to_string()),
            CheckpointError::Interrupted { .. } => CliError::Interrupted(e.to_string()),
            CheckpointError::Io(_) | CheckpointError::Corrupt(_) => CliError::Io(e.to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exit_codes_match_the_table() {
        assert_eq!(CliError::Usage(String::new()).exit_code(), 2);
        assert_eq!(CliError::BenchRegress(String::new()).exit_code(), 3);
        assert_eq!(CliError::Io(String::new()).exit_code(), 5);
        assert_eq!(CliError::Interrupted(String::new()).exit_code(), 6);
    }

    #[test]
    fn checkpoint_errors_map_to_the_right_rows() {
        let io = CheckpointError::Io(std::io::Error::other("x"));
        assert_eq!(CliError::from(io).exit_code(), EXIT_IO);
        let cfg = CheckpointError::Config("y".into());
        assert_eq!(CliError::from(cfg).exit_code(), EXIT_USAGE);
        let corrupt = CheckpointError::Corrupt("z".into());
        assert_eq!(CliError::from(corrupt).exit_code(), EXIT_IO);
        let int = CheckpointError::Interrupted {
            committed: 1,
            total: 2,
        };
        assert_eq!(CliError::from(int).exit_code(), EXIT_INTERRUPTED);
    }
}
