//! Real-socket tests of the TCP worker pool: more clients than workers,
//! interleaved and pipelined requests, per-connection response order.
//!
//! PR 3's loadgen and smoke step only exercised the service in-process or
//! over stdin; these tests drive actual `TcpStream`s against
//! `serve_listener_with` so the frontend's readiness machinery (epoll
//! parking, non-blocking reads, blocking writes) is what serves the bytes.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Duration;

use stencil_serve::json::Value;
use stencil_serve::server::{serve_listener_with, ServeOptions};
use stencil_serve::service::{MappingService, ServiceConfig};

/// Binds an ephemeral port and serves it with the given options.
fn start_server(opts: ServeOptions) -> (Arc<MappingService>, std::net::SocketAddr) {
    let service = Arc::new(MappingService::new(&ServiceConfig::default()));
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    {
        let service = Arc::clone(&service);
        std::thread::spawn(move || {
            let _ = serve_listener_with(service, listener, opts, Arc::new(AtomicBool::new(false)));
        });
    }
    (service, addr)
}

fn pool_opts(workers: usize) -> ServeOptions {
    ServeOptions {
        workers,
        ..ServeOptions::default()
    }
}

/// Twelve clients on a two-worker pool, requests interleaved round-robin
/// across the connections (one request per client per round, responses
/// read *after* all writes of the round), so connections outnumber worker
/// threads 6x and every connection is mid-stream while others are served.
/// Each client must see exactly its own responses, in its own send order.
#[test]
fn more_clients_than_workers_interleaved_requests_keep_per_connection_order() {
    const CLIENTS: usize = 12;
    const WORKERS: usize = 2;
    const ROUNDS: usize = 8;
    let (_service, addr) = start_server(pool_opts(WORKERS));

    let mut conns: Vec<TcpStream> = (0..CLIENTS)
        .map(|_| TcpStream::connect(addr).unwrap())
        .collect();
    let mut readers: Vec<BufReader<TcpStream>> = conns
        .iter()
        .map(|c| BufReader::new(c.try_clone().unwrap()))
        .collect();

    for round in 0..ROUNDS {
        // interleave writes: every client sends one request before any
        // response of this round is read
        for (client, conn) in conns.iter_mut().enumerate() {
            let id = round * CLIENTS + client;
            // vary the instance per client so hits and misses interleave
            let nodes = 2 + (client % 3) * 2;
            let line = format!(
                "{{\"id\":{id},\"dims\":[{nodes},6],\"nodes\":{nodes},\"want_mapping\":false}}\n"
            );
            conn.write_all(line.as_bytes()).unwrap();
        }
        for (client, reader) in readers.iter_mut().enumerate() {
            let id = round * CLIENTS + client;
            let mut reply = String::new();
            reader.read_line(&mut reply).unwrap();
            let v = Value::parse(reply.trim_end()).unwrap();
            assert_eq!(
                v.get("id").and_then(Value::as_usize),
                Some(id),
                "client {client} round {round} got someone \
                 else's response: {reply}"
            );
            assert_eq!(v.get("status").and_then(Value::as_str), Some("ok"));
        }
    }
}

/// One connection pipelines a burst of requests (including a batch and an
/// error) without reading; the responses must come back 1:1 in order.
#[test]
fn pipelined_burst_on_one_connection_answers_in_order() {
    let (_service, addr) = start_server(pool_opts(2));
    let mut conn = TcpStream::connect(addr).unwrap();
    let mut burst = String::new();
    for id in 0..20 {
        burst.push_str(&format!(
            "{{\"id\":{id},\"dims\":[6,4],\"nodes\":4,\"want_mapping\":false}}\n"
        ));
    }
    burst.push_str("{\"batch\":[{\"id\":\"x\",\"dims\":[4,4],\"nodes\":4,\"want_mapping\":false},{\"id\":\"y\",\"dims\":[3,3]}]}\n");
    burst.push_str("{broken\n");
    conn.write_all(burst.as_bytes()).unwrap();
    conn.shutdown(std::net::Shutdown::Write).unwrap();

    let reader = BufReader::new(conn);
    let lines: Vec<String> = reader.lines().map(|l| l.unwrap()).collect();
    assert_eq!(lines.len(), 22);
    for (id, line) in lines[..20].iter().enumerate() {
        let v = Value::parse(line).unwrap();
        assert_eq!(v.get("id").and_then(Value::as_usize), Some(id), "{line}");
    }
    let batch = Value::parse(&lines[20]).unwrap();
    let items = batch.get("batch").and_then(Value::as_arr).unwrap();
    assert_eq!(items.len(), 2);
    assert_eq!(items[0].get("id").and_then(Value::as_str), Some("x"));
    assert_eq!(
        items[1].get("status").and_then(Value::as_str),
        Some("error")
    );
    assert!(lines[21].contains("\"status\":\"error\""));
}

/// A request split into tiny TCP writes (including a mid-line pause) must
/// still be framed into one request; a second connection making progress in
/// the meantime proves the pool is not blocked on the dribbling client.
#[test]
fn slow_dribbling_client_does_not_block_the_pool() {
    let (_service, addr) = start_server(pool_opts(1)); // a single worker, even
    let mut slow = TcpStream::connect(addr).unwrap();
    let line = b"{\"id\":7,\"dims\":[6,4],\"nodes\":4,\"want_mapping\":false}\n";
    let (head, tail) = line.split_at(10);
    slow.write_all(head).unwrap();
    slow.flush().unwrap();

    // while the slow client's line is incomplete, a fast client is served
    let mut fast = TcpStream::connect(addr).unwrap();
    fast.write_all(b"{\"id\":1,\"dims\":[4,4],\"nodes\":4,\"want_mapping\":false}\n")
        .unwrap();
    let mut fast_reply = String::new();
    BufReader::new(fast.try_clone().unwrap())
        .read_line(&mut fast_reply)
        .unwrap();
    assert!(fast_reply.contains("\"id\":1"), "{fast_reply}");

    slow.write_all(tail).unwrap();
    let mut slow_reply = String::new();
    BufReader::new(slow.try_clone().unwrap())
        .read_line(&mut slow_reply)
        .unwrap();
    assert!(slow_reply.contains("\"id\":7"), "{slow_reply}");
}

/// Connections closed abruptly (mid-line, or right after connecting) must
/// not take a worker down; later clients are still served.
#[test]
fn abrupt_disconnects_leave_the_pool_healthy() {
    let (_service, addr) = start_server(pool_opts(2));
    for _ in 0..8 {
        let mut c = TcpStream::connect(addr).unwrap();
        c.write_all(b"{\"half\":").unwrap();
        drop(c); // vanish mid-line
        let c2 = TcpStream::connect(addr).unwrap();
        drop(c2); // vanish without a byte
    }
    let mut conn = TcpStream::connect(addr).unwrap();
    conn.write_all(b"{\"id\":9,\"dims\":[4,4],\"nodes\":4,\"want_mapping\":false}\n")
        .unwrap();
    let mut reply = String::new();
    BufReader::new(conn).read_line(&mut reply).unwrap();
    assert!(reply.contains("\"id\":9"), "{reply}");
}

/// A client that pipelines large verbose responses and stops reading stalls
/// the server's blocking `write_all`; once [`ServeOptions::write_timeout`]
/// expires the connection must be torn down — whatever bytes made it out are
/// well-formed lines (plus at most one torn tail), EOF follows, and the
/// socket never serves a later request — while the pool stays healthy for
/// other clients.
#[test]
fn write_timeout_tears_down_a_client_that_stops_reading() {
    let (_service, addr) = start_server(ServeOptions {
        workers: 2,
        write_timeout: Duration::from_millis(300),
        ..ServeOptions::default()
    });
    // ~260 KiB of compact node table per response, ~16 MiB across all
    // 60.  Two sizing constraints, both learned the hard way:
    //
    // * The total must overrun what the kernel will buffer for a
    //   receiver that never reads: the server's send buffer plus the
    //   client's *initial* receive buffer (TCP auto-tuning only grows
    //   it for a reading peer) — measured ~3-4 MiB on loopback here.
    //   16 MiB leaves a ~4x margin.
    // * Responses must be cheap to *produce*, or the server is still
    //   serialising when the client below wakes and starts draining,
    //   and the freshly opened window rescues the blocked write right
    //   at the timeout boundary.  Compact tables are memoised on the
    //   cache entry (generation is a memcpy); verbose tables are
    //   re-serialised per response and lose the race in debug builds.
    //   Keeping the batch small (60, not hundreds) keeps generation
    //   well under the client's sleep below.
    let request = "{\"dims\":[500,400],\"nodes\":100,\"encoding\":\"compact\"}\n";

    // Warm the cache on a well-behaved connection first so the stuck
    // connection's responses are all memoised hits (no multi-second
    // cold compute on the stuck path).
    {
        let mut warm = TcpStream::connect(addr).unwrap();
        warm.write_all(request.as_bytes()).unwrap();
        let mut line = String::new();
        BufReader::new(warm).read_line(&mut line).unwrap();
        assert!(line.contains("\"status\":\"ok\""), "{line}");
    }

    let mut stuck = TcpStream::connect(addr).unwrap();
    for _ in 0..60 {
        stuck.write_all(request.as_bytes()).unwrap();
    }
    // Do not read: the server's write_all must block and then time out.
    // The sleep must outlast response generation *plus* the 300 ms
    // write timeout, or draining below re-opens the window in time to
    // rescue the blocked write.
    std::thread::sleep(Duration::from_millis(2500));

    // drain what did make it out: every complete line is well formed,
    // nothing valid follows a torn tail, and the stream ends in EOF
    stuck
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut received = Vec::new();
    let mut chunk = [0u8; 64 * 1024];
    loop {
        match stuck.read(&mut chunk) {
            Ok(0) => break, // EOF: the server closed the connection
            Ok(n) => received.extend_from_slice(&chunk[..n]),
            // A reset is also a valid teardown signal: dropping the
            // connection with bytes still queued can surface as RST.
            Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => break,
            Err(e) => panic!("expected EOF after write timeout, got {e}"),
        }
    }
    let text = String::from_utf8(received).unwrap();
    let mut parts = text.split('\n');
    let torn_tail = parts.next_back().unwrap(); // after the last '\n'
    let complete = parts.collect::<Vec<_>>();
    assert!(
        complete.len() < 60,
        "all 60 responses arrived — the write never timed out"
    );
    for line in &complete {
        assert!(
            Value::parse(line).is_ok(),
            "torn line followed by more output: {:?}",
            &line[..line.len().min(120)]
        );
    }
    let _ = torn_tail; // a torn tail is fine — it is the final bytes

    // the torn-down socket never serves a later request: a fresh write
    // either fails outright or is answered only by EOF
    let mut after = String::new();
    if stuck.write_all(request.as_bytes()).is_ok() {
        let n = stuck.read(&mut chunk).unwrap_or(0);
        after = String::from_utf8_lossy(&chunk[..n]).into_owned();
    }
    assert!(
        after.is_empty(),
        "a closed connection served a request: {after:?}"
    );

    // the pool is healthy: a fresh client is served promptly
    let mut fresh = TcpStream::connect(addr).unwrap();
    fresh
        .write_all(b"{\"id\":1,\"dims\":[4,4],\"nodes\":4,\"want_mapping\":false}\n")
        .unwrap();
    let mut reply = String::new();
    BufReader::new(fresh).read_line(&mut reply).unwrap();
    assert!(reply.contains("\"status\":\"ok\""), "{reply}");
}

/// Sends `lines` one at a time over one connection and returns the
/// response lines in order.
fn exchange(addr: std::net::SocketAddr, lines: &[&str]) -> Vec<String> {
    let mut conn = TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(conn.try_clone().unwrap());
    lines
        .iter()
        .map(|line| {
            conn.write_all(format!("{line}\n").as_bytes()).unwrap();
            let mut reply = String::new();
            reader.read_line(&mut reply).unwrap();
            reply
        })
        .collect()
}

/// With [`ServeOptions::degrade_queue`] at 0 every turn counts as
/// saturated: a table request is answered cost-only and flagged
/// `"degraded":true`, while point queries and cost-only requests, which
/// carry no table to strip, answer byte-identically to a default server.
#[test]
fn degrade_queue_strips_tables_over_tcp_and_nothing_else() {
    let lines = [
        r#"{"id":1,"dims":[8,6],"nodes":4}"#,
        r#"{"id":2,"dims":[8,6],"nodes":4,"query":"new_rank_of","ranks":[0,47]}"#,
        r#"{"id":3,"dims":[8,6],"nodes":4,"want_mapping":false}"#,
    ];
    let (_plain_service, plain_addr) = start_server(pool_opts(1));
    let (_degraded_service, degraded_addr) = start_server(ServeOptions {
        degrade_queue: 0,
        ..pool_opts(1)
    });
    let plain = exchange(plain_addr, &lines);
    let degraded = exchange(degraded_addr, &lines);

    let table = Value::parse(plain[0].trim_end()).unwrap();
    assert!(table.get("nodes").is_some() && table.get("degraded").is_none());
    let stripped = Value::parse(degraded[0].trim_end()).unwrap();
    assert_eq!(stripped.get("status").and_then(Value::as_str), Some("ok"));
    assert_eq!(
        stripped.get("degraded").and_then(Value::as_bool),
        Some(true)
    );
    assert!(stripped.get("nodes").is_none(), "{}", degraded[0]);
    assert_eq!(stripped.get("j_sum"), table.get("j_sum"));

    assert_eq!(degraded[1..], plain[1..]);
}
