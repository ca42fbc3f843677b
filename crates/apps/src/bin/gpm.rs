//! `gpm` — command-line pattern mining over the simulated cluster.
//!
//! `gpm --help` lists the commands and flags.
//!
//! Example: `gpm --gen ba:20000,8 --pattern clique:4 --machines 8`

use gpm_apps::cli;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let status = cli::main(&args, &mut std::io::stdout(), &mut std::io::stderr());
    if status != 0 {
        std::process::exit(status);
    }
}
