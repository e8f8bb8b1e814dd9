//! Binary entry point; all command logic lives in `ripki_cli::run`.

#![allow(clippy::print_stderr)]

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match ripki_cli::run(&args, &mut std::io::stdout()) {
        Ok(()) => {}
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}
