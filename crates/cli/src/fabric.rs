//! The distribution-fabric commands: `proxy` runs a declared fabric,
//! `rtr-probe` syncs once against any RTR cache.

use crate::signal::wait_for_shutdown_signal;
use crate::{CliError, Flags};
use std::io::Write;
use std::path::PathBuf;

pub(crate) fn cmd_proxy(flags: &Flags, out: &mut dyn Write) -> Result<(), CliError> {
    let path = PathBuf::from(flags.require("config")?);
    let exit_after_drain: bool = flags.get_parsed("exit-after-drain", false)?;
    let text = std::fs::read_to_string(&path)?;
    writeln!(out, "starting distribution fabric from {}", path.display())?;
    out.flush()?;
    // Fabric threads outlive this call's borrow of `out`, so the fabric
    // logs straight to stdout — in the binary that is the same stream,
    // and the multi-process chain test (and CI smoke) greps those lines.
    let log = ripki_proxy::Log::to(Box::new(std::io::stdout()));
    let mut manager =
        ripki_proxy::Manager::from_toml(&text, &log).map_err(|e| CliError::Data(e.to_string()))?;
    if exit_after_drain {
        manager.drain();
        manager.shutdown();
        writeln!(out, "fabric drained; exiting")?;
        return Ok(());
    }
    // An `rtr`/`json`-rooted pipeline never drains on its own, so the
    // serving form does not wait for that: it waits for the signal.
    writeln!(out, "fabric running; ctrl-c to stop")?;
    out.flush()?;
    wait_for_shutdown_signal();
    writeln!(out, "shutdown signal received; stopping units and targets")?;
    manager.shutdown();
    writeln!(out, "fabric stopped; exiting cleanly")?;
    Ok(())
}

pub(crate) fn cmd_rtr_probe(flags: &Flags, out: &mut dyn Write) -> Result<(), CliError> {
    let addr = flags.require("connect")?;
    let timeout_ms: u64 = flags.get_parsed("timeout-ms", 3_000)?;
    // One bound for the dial and for every read and write after it.
    let timeout = std::time::Duration::from_millis(timeout_ms);
    let stream = ripki_rtr::dial(addr, timeout)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    let mut client = ripki_rtr::Client::new(stream);
    client
        .sync()
        .map_err(|e| CliError::Data(format!("rtr sync against {addr} failed: {e}")))?;
    let (session, serial) = client
        .state()
        .ok_or_else(|| CliError::Data(format!("cache at {addr} sent no data")))?;
    let payload = client
        .payload()
        .ok_or_else(|| CliError::Data(format!("cache at {addr} sent no data")))?;
    writeln!(
        out,
        "rtr-probe {addr}: session {session:#06x} serial {serial} in lockstep with {payload}",
    )?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use crate::tests::{run_args, run_ok, scratch};
    use crate::CliError;
    use ripki_bgp::rov::VrpTriple;
    use ripki_net::Asn;

    #[test]
    fn rtr_probe_reports_cache_state() {
        let cache = std::sync::Arc::new(ripki_rtr::CacheServer::new(0xBEEF));
        cache.install_snapshot(
            3,
            [VrpTriple {
                prefix: "10.0.0.0/24".parse().unwrap(),
                max_length: 24,
                asn: Asn::new(64496),
            }],
        );
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = {
            let cache = std::sync::Arc::clone(&cache);
            std::thread::spawn(move || {
                let (conn, _) = listener.accept().expect("accept");
                let _ = cache.serve_connection(conn);
            })
        };
        let text = run_ok(&["rtr-probe", "--connect", &addr.to_string()]);
        assert!(text.contains("session 0xbeef"), "{text}");
        assert!(text.contains("serial 3"), "{text}");
        assert!(text.contains("epoch 3 (1 vrps"), "{text}");
        server.join().unwrap();
    }

    #[test]
    fn rtr_probe_gives_up_on_a_cache_that_drops_syns() {
        // A backlog-0 listener holding one unaccepted connection: on
        // Linux loopback every later SYN is dropped.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        ripki_serve::reactor::set_accept_backlog(&listener, 0).unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let _queued = std::net::TcpStream::connect(&addr).unwrap();
        let started = std::time::Instant::now();
        let outcome = run_args(&["rtr-probe", "--connect", &addr, "--timeout-ms", "300"]);
        assert!(outcome.is_err(), "{outcome:?}");
        let took = started.elapsed();
        assert!(took < std::time::Duration::from_secs(2), "took {took:?}");
    }

    #[test]
    fn proxy_rejects_bad_configs() {
        assert!(matches!(run_args(&["proxy"]), Err(CliError::BadFlag(_))));
        assert!(matches!(
            run_args(&["proxy", "--config", "/nonexistent.toml"]),
            Err(CliError::Io(_))
        ));

        let dir = scratch();
        std::fs::create_dir_all(&dir).unwrap();
        let config = dir.join("broken.toml");
        std::fs::write(&config, "[units.a]\ntype = \"flux\"\n").unwrap();
        match run_args(&["proxy", "--config", config.to_str().unwrap()]) {
            Err(CliError::Data(message)) => {
                assert!(message.contains("unknown type"), "{message}");
            }
            other => panic!("expected a data error, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn proxy_engine_pipeline_drains_and_exits() {
        let dir = scratch();
        std::fs::create_dir_all(&dir).unwrap();
        let config = dir.join("proxy.toml");
        std::fs::write(
            &config,
            "[units.world]\ntype = \"engine\"\ndomains = 40\nepochs = 1\n\
             \n[targets.cache]\ntype = \"rtr\"\nlisten = \"127.0.0.1:0\"\nunit = \"world\"\n",
        )
        .unwrap();
        let text = run_ok(&[
            "proxy",
            "--config",
            config.to_str().unwrap(),
            "--exit-after-drain",
            "true",
        ]);
        assert!(text.contains("fabric drained; exiting"), "{text}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
