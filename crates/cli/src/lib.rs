#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

//! # dhp-cli
//!
//! The `daghetpart` command-line scheduler. Subcommands:
//!
//! * `schedule` — map a workflow (GraphViz DOT or WfCommons JSON) onto a
//!   cluster (paper-named configuration or JSON file) and print a
//!   mapping report as JSON.
//! * `generate` — produce a workflow instance from one of the seven
//!   paper families, as WfCommons JSON or DOT.
//! * `inspect` — print structural statistics of a workflow file.
//! * `queue` (alias `serve`) — co-schedule a generated stream of
//!   workflows online on one shared cluster and report per-workflow
//!   wait/stretch plus fleet throughput/utilisation.
//! * `cluster-template` — print an example cluster JSON file.
//!
//! The heavy lifting lives in the workspace libraries; this crate only
//! parses arguments, loads files, and formats results, and is therefore
//! fully testable without spawning the binary.

pub mod args;
pub mod commands;
pub mod queue;
pub mod report;
pub mod spec;

pub use args::Args;

/// Entry point shared by the binary and the tests. Returns the text to
/// print on stdout, or a user-facing error message.
pub fn run<I: IntoIterator<Item = String>>(tokens: I) -> Result<String, String> {
    let args = Args::parse(tokens).map_err(|e| format!("{e}\n\n{}", commands::USAGE))?;
    if args.switch("help") || args.command == "help" {
        return Ok(commands::USAGE.to_string());
    }
    match args.command.as_str() {
        "schedule" => commands::schedule(&args),
        "generate" => commands::generate(&args),
        "inspect" => commands::inspect(&args),
        "queue" | "serve" => queue::queue(&args),
        "cluster-template" => commands::cluster_template(),
        other => Err(format!(
            "unknown subcommand {other:?}\n\n{}",
            commands::USAGE
        )),
    }
}

#[cfg(test)]
mod tests {
    use std::path::PathBuf;

    /// A directory for one test's files, removed when the test ends. The
    /// process id and the test's tag keep concurrent tests, and
    /// overlapping runs of the suite, apart.
    pub(crate) struct Scratch(PathBuf);

    impl Scratch {
        pub(crate) fn new(tag: &str) -> Scratch {
            let dir =
                std::env::temp_dir().join(format!("dhp-cli-tests-{}-{tag}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            Scratch(dir)
        }

        /// The path of `name` in this directory, as a command-line word.
        pub(crate) fn file(&self, name: &str) -> String {
            self.0.join(name).to_string_lossy().into_owned()
        }
    }

    impl Drop for Scratch {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }
}
