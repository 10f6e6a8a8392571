//! An in-process `berry-serve` server for the serving probes, and the
//! engine's own rows that its streamed rows must match.

use crate::fail;
use berry_core::campaign::run_grid_serial_in;
use berry_core::experiment::ExperimentScale;
use berry_core::scenario::Scenario;
use berry_core::PolicyStore;
use berry_serve::protocol::{Request, Terminal};
use berry_serve::server::Server;
use berry_serve::{client, ServeError};
use std::sync::Arc;
use std::thread::JoinHandle;

/// A `berry-serve` server running on a background thread over an
/// in-memory store, stopped by [`LocalServer::stop`] (or on drop).
pub struct LocalServer {
    server: Arc<Server>,
    addr: String,
    thread: Option<JoinHandle<Result<(), ServeError>>>,
}

impl LocalServer {
    /// Binds a server on an ephemeral localhost port and starts it.
    ///
    /// # Errors
    ///
    /// Returns a message if the socket cannot be bound.
    pub fn start() -> Result<Self, String> {
        let server =
            Arc::new(Server::bind("127.0.0.1:0", PolicyStore::in_memory()).map_err(fail("bind"))?);
        let addr = server.local_addr().map_err(fail("local addr"))?.to_string();
        let running = Arc::clone(&server);
        let thread = std::thread::spawn(move || running.run());
        Ok(Self {
            server,
            addr,
            thread: Some(thread),
        })
    }

    /// The server's shared policy store.
    pub fn store(&self) -> &PolicyStore {
        self.server.store()
    }

    /// Sends one Smoke campaign request, handing each row line to
    /// `on_row`.
    ///
    /// # Errors
    ///
    /// Returns a message on a socket or protocol failure.
    pub fn campaign(
        &self,
        base_seed: u64,
        mut on_row: impl FnMut(&str),
    ) -> Result<Terminal, String> {
        let request = Request::Campaign {
            scale: ExperimentScale::Smoke,
            base_seed,
            cells: None,
        };
        client::request(&self.addr, &request, |line| {
            on_row(line);
            Ok(())
        })
        .map_err(fail("campaign request"))
    }

    /// Asks the server to shut down and waits for its thread.
    ///
    /// # Errors
    ///
    /// Returns a message if shutdown fails or the server thread failed.
    pub fn stop(mut self) -> Result<(), String> {
        self.shutdown()
    }

    fn shutdown(&mut self) -> Result<(), String> {
        let Some(thread) = self.thread.take() else {
            return Ok(());
        };
        let sent = client::shutdown(&self.addr).map_err(fail("shutdown request"));
        let joined = match thread.join() {
            Ok(run) => run.map_err(fail("server run")),
            Err(_) => Err("server thread panicked".to_string()),
        };
        sent.and(joined)
    }
}

impl Drop for LocalServer {
    fn drop(&mut self) {
        // Errors are reported by `stop`; a drop only makes sure the
        // thread is gone.
        let _ = self.shutdown();
    }
}

/// The reference row lines of a Smoke campaign, straight from the engine
/// on the same store.
///
/// # Errors
///
/// Returns a message if the campaign fails.
pub fn reference_rows(store: &PolicyStore, base_seed: u64) -> Result<Vec<String>, String> {
    Ok(run_grid_serial_in(
        &Scenario::smoke_grid(),
        ExperimentScale::Smoke,
        base_seed,
        store,
    )
    .map_err(fail("reference campaign"))?
    .iter()
    .map(|row| row.to_json_line())
    .collect())
}
