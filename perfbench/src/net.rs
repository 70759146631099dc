//! Real `stencil-serve` processes and line clients for the traced
//! server and router sections.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use crate::util::{setup_err, Res};

/// How long a spawned server may take to print its listening address.
const STARTUP_LIMIT: Duration = Duration::from_secs(20);

/// A `stencil-serve --listen ADDR …` child.  Dropping it kills the
/// process and waits for it, so no server outlives the benchmark, whatever
/// path the benchmark leaves by.
pub struct Server {
    child: Child,
    pub addr: String,
}

impl Server {
    /// Spawns the server listening on `listen` with stderr going to `log`
    /// and waits until it reports its address; a missing binary, an early
    /// exit or a silent start are set-up failures.
    pub fn spawn(bin: &Path, listen: &str, args: &[String], log: &Path) -> Res<Server> {
        if !bin.is_file() {
            return setup_err(format!(
                "stencil-serve binary not found at {}",
                bin.display()
            ));
        }
        let stderr = std::fs::File::create(log)
            .or_else(|e| setup_err(format!("cannot create {}: {e}", log.display())))?;
        let child = Command::new(bin)
            .args(["--listen", listen])
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(stderr)
            .spawn()
            .or_else(|e| setup_err(format!("cannot start {}: {e}", bin.display())))?;
        let mut server = Server {
            child,
            addr: String::new(),
        };
        let started = Instant::now();
        loop {
            let text = std::fs::read_to_string(log).unwrap_or_default();
            if let Some(rest) = text.split("listening on ").nth(1) {
                if let Some(addr) = rest.split_whitespace().next() {
                    server.addr = addr.to_string();
                    return Ok(server);
                }
            }
            if let Ok(Some(status)) = server.child.try_wait() {
                return setup_err(format!(
                    "stencil-serve {args:?} exited with {status} before listening:\n{text}"
                ));
            }
            if started.elapsed() > STARTUP_LIMIT {
                return setup_err(format!(
                    "stencil-serve {args:?} did not come up within {STARTUP_LIMIT:?}:\n{text}"
                ));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One client connection speaking one request line per response line.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    out: Vec<u8>,
}

impl Conn {
    pub fn connect(addr: &str) -> Res<Conn> {
        let stream = stream(addr)?;
        let writer = stream
            .try_clone()
            .or_else(|e| setup_err(format!("cannot clone the socket to {addr}: {e}")))?;
        Ok(Conn {
            reader: BufReader::new(stream),
            writer,
            out: Vec::new(),
        })
    }

    /// Sends one line and reads its response (without the newline) into
    /// `response`.
    pub fn call_into(&mut self, line: &str, response: &mut String) -> Res<()> {
        self.out.clear();
        self.out.extend_from_slice(line.as_bytes());
        self.out.push(b'\n');
        self.writer
            .write_all(&self.out)
            .or_else(|e| setup_err(format!("send failed: {e}")))?;
        response.clear();
        let n = self
            .reader
            .read_line(response)
            .or_else(|e| setup_err(format!("receive failed: {e}")))?;
        if n == 0 || !response.ends_with('\n') {
            return setup_err("server closed the connection");
        }
        response.pop();
        Ok(())
    }

    /// [`Conn::call_into`] returning the response.
    pub fn call(&mut self, line: &str) -> Res<String> {
        let mut response = String::new();
        self.call_into(line, &mut response)?;
        Ok(response)
    }
}

/// The first `n` ports of `candidates` that are free on 127.0.0.1 right
/// now (each is bound and released once).
pub fn free_ports(candidates: std::ops::Range<u16>, n: usize) -> Res<Vec<u16>> {
    let ports: Vec<u16> = candidates
        .filter(|&p| std::net::TcpListener::bind(("127.0.0.1", p)).is_ok())
        .take(n)
        .collect();
    if ports.len() < n {
        return setup_err(format!("fewer than {n} free ports on 127.0.0.1"));
    }
    Ok(ports)
}

/// A stream with Nagle's algorithm off, as a line client wants it.
fn stream(addr: &str) -> Res<TcpStream> {
    let stream = TcpStream::connect(addr)
        .or_else(|e| setup_err(format!("cannot connect to {addr}: {e}")))?;
    stream
        .set_nodelay(true)
        .or_else(|e| setup_err(format!("set_nodelay on {addr}: {e}")))?;
    Ok(stream)
}
