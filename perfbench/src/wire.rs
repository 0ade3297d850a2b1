//! The system under test: a `slope-pmc serve` child process, and plain
//! TCP connections that speak its line protocol.

use crate::metrics_text::Exposition;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::thread::JoinHandle;

/// A running server. Dropping it kills the process and waits for it.
pub struct ServerProcess {
    child: Child,
    drain: Option<JoinHandle<()>>,
    /// The bound address the server reported.
    pub addr: String,
}

impl ServerProcess {
    /// Start `binary serve` on an ephemeral local port over `registry`,
    /// with every other setting at its default, and wait until it listens.
    ///
    /// # Errors
    ///
    /// Returns a message when the process cannot start or exits before
    /// reporting its address.
    pub fn spawn(binary: &Path, registry: &Path) -> Result<ServerProcess, String> {
        let mut child = Command::new(binary)
            .arg("serve")
            .arg("--addr")
            .arg("127.0.0.1:0")
            .arg("--registry")
            .arg(registry)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", binary.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut server = ServerProcess {
            child,
            drain: None,
            addr: String::new(),
        };
        let mut reader = BufReader::new(stdout);
        server.addr = read_address(&mut reader)?;
        // Keep reading so the server never blocks on a full pipe.
        server.drain = Some(std::thread::spawn(move || {
            let _ = io::copy(&mut reader, &mut io::sink());
        }));
        Ok(server)
    }

    /// Process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// User plus system CPU time the server has used, seconds.
    pub fn cpu_seconds(&self) -> Option<f64> {
        let stat = std::fs::read_to_string(format!("/proc/{}/stat", self.pid())).ok()?;
        // Fields after the parenthesised command name; utime and stime
        // are fields 14 and 15 of the whole line.
        let rest = &stat[stat.rfind(')')? + 2..];
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let utime: f64 = fields.get(11)?.parse().ok()?;
        let stime: f64 = fields.get(12)?.parse().ok()?;
        Some((utime + stime) / clock_ticks_per_second())
    }

    /// Peak resident set size (VmHWM), MiB.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid())).ok()?;
        let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
        let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
        Some(kb / 1024.0)
    }
}

impl Drop for ServerProcess {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }
}

fn read_address(reader: &mut BufReader<ChildStdout>) -> Result<String, String> {
    let mut line = String::new();
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) | Err(_) => return Err("server exited before listening".to_string()),
            Ok(_) => {}
        }
        if let Some(rest) = line.strip_prefix("slope-pmc serving on ") {
            let addr = rest.split_whitespace().next().unwrap_or_default();
            return Ok(addr.to_string());
        }
    }
}

/// Machine-wide `(total, steal)` CPU ticks from `/proc/stat`. Steal is
/// time a virtual machine's CPUs were runnable but the host ran someone
/// else; it is printed with every run because it moves wall-clock figures.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    Some((fields.iter().sum(), *fields.get(7)?))
}

/// `AT_CLKTCK` from the kernel's auxiliary vector; 100 if unreadable.
fn clock_ticks_per_second() -> f64 {
    const AT_CLKTCK: u64 = 17;
    let mut auxv = Vec::new();
    if std::fs::File::open("/proc/self/auxv")
        .and_then(|mut f| f.read_to_end(&mut auxv))
        .is_ok()
    {
        for pair in auxv.chunks_exact(16) {
            let key = u64::from_ne_bytes(pair[..8].try_into().expect("8 bytes"));
            let value = u64::from_ne_bytes(pair[8..].try_into().expect("8 bytes"));
            if key == AT_CLKTCK && value > 0 {
                return value as f64;
            }
        }
    }
    100.0
}

/// One client connection.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    out: Vec<u8>,
}

impl Conn {
    /// Connect with Nagle off (one request per round trip would
    /// otherwise stall on delayed ACKs).
    ///
    /// # Errors
    ///
    /// Returns the connect error.
    pub fn connect(addr: &str) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            reader: BufReader::with_capacity(1 << 16, stream.try_clone()?),
            writer: stream,
            out: Vec::with_capacity(1 << 14),
        })
    }

    /// Split into a write half and a read half for an open loop.
    pub fn split(self) -> (TcpStream, BufReader<TcpStream>) {
        (self.writer, self.reader)
    }

    /// Send `lines` in one write, each terminated by a newline.
    ///
    /// # Errors
    ///
    /// Returns the write error.
    pub fn send<S: AsRef<str>>(&mut self, lines: &[S]) -> io::Result<()> {
        self.out.clear();
        for line in lines {
            self.out.extend_from_slice(line.as_ref().as_bytes());
            self.out.push(b'\n');
        }
        self.writer.write_all(&self.out)
    }

    /// Read one reply line into `line` (cleared first), without its
    /// newline.
    ///
    /// # Errors
    ///
    /// Returns the read error, or `UnexpectedEof` when the server closed.
    pub fn read_into(&mut self, line: &mut String) -> io::Result<()> {
        read_reply(&mut self.reader, line)
    }

    /// One request, one reply line.
    ///
    /// # Errors
    ///
    /// Returns the I/O error.
    pub fn request(&mut self, line: &str) -> io::Result<String> {
        self.send(&[line])?;
        let mut reply = String::new();
        self.read_into(&mut reply)?;
        Ok(reply)
    }

    /// A counted listing (`OK count=<n>` then `n` lines).
    ///
    /// # Errors
    ///
    /// Returns the I/O error, or `InvalidData` for an unexpected header.
    pub fn listing(&mut self, line: &str) -> io::Result<Vec<String>> {
        let header = self.request(line)?;
        let count: usize = header
            .strip_prefix("OK count=")
            .and_then(|n| n.trim().parse().ok())
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, header.clone()))?;
        let mut lines = Vec::with_capacity(count);
        for _ in 0..count {
            let mut reply = String::new();
            self.read_into(&mut reply)?;
            lines.push(reply);
        }
        Ok(lines)
    }

    /// The server's METRICS snapshot.
    ///
    /// # Errors
    ///
    /// Returns the I/O error.
    pub fn metrics(&mut self) -> io::Result<Exposition> {
        Ok(Exposition::parse(&self.listing("METRICS")?))
    }
}

/// Read one reply line from `reader` into `line`, newline stripped.
///
/// # Errors
///
/// Returns the read error, or `UnexpectedEof` when the server closed.
pub fn read_reply(reader: &mut BufReader<TcpStream>, line: &mut String) -> io::Result<()> {
    line.clear();
    if reader.read_line(line)? == 0 {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "server closed",
        ));
    }
    let trimmed = line.trim_end().len();
    line.truncate(trimmed);
    Ok(())
}

/// The value of `key=` in an `OK key=value ...` reply.
pub fn field<'a>(reply: &'a str, key: &str) -> Option<&'a str> {
    reply
        .split_whitespace()
        .find_map(|word| word.strip_prefix(key)?.strip_prefix('='))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fields_are_read_by_exact_key() {
        let reply = "OK window=7 accepted=1 lag=0 retained=3 highest=7";
        assert_eq!(field(reply, "window"), Some("7"));
        assert_eq!(field(reply, "accepted"), Some("1"));
        assert_eq!(field(reply, "lag"), Some("0"));
        assert_eq!(field(reply, "accept"), None);
        assert_eq!(field("OK joules=1.5 ci=0.2", "ci"), Some("0.2"));
    }
}
