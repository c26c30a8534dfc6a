//! Command output on stdout.
//!
//! Every stdout write of the CLI goes through [`out!`]/[`outln!`]. A
//! reader that stops early (`hpcpower … | head -1`, `| grep -q`, `|
//! true`) closes the pipe, and the next write fails with `BrokenPipe`:
//! that ends the output quietly, where `print!` would panic. Any other
//! write failure is an I/O error (exit 5).

use std::io::{ErrorKind, Write};

use crate::errors::CliError;

/// Writes formatted text to stdout; a closed stdout counts as done.
pub fn write(text: std::fmt::Arguments<'_>) -> Result<(), CliError> {
    match std::io::stdout().lock().write_fmt(text) {
        Err(e) if e.kind() != ErrorKind::BrokenPipe => {
            Err(CliError::io(format!("cannot write to stdout: {e}")))
        }
        _ => Ok(()),
    }
}

/// `print!` through [`write`].
macro_rules! out {
    ($($arg:tt)*) => {
        $crate::out::write(format_args!($($arg)*))
    };
}

/// `println!` through [`write`].
macro_rules! outln {
    () => {
        $crate::out::write(format_args!("\n"))
    };
    ($($arg:tt)*) => {
        $crate::out::write(format_args!("{}\n", format_args!($($arg)*)))
    };
}
