//! A minimal HTTP/1.1 client: one connection per request, as a scraper
//! that opens a fresh connection for every read.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};

/// `GET path`; returns the status code and the full body.
pub fn get(addr: SocketAddr, path: &str) -> std::io::Result<(u16, String)> {
    let mut conn = TcpStream::connect(addr)?;
    conn.set_nodelay(true)?;
    write!(
        conn,
        "GET {path} HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n"
    )?;
    let mut raw = Vec::new();
    conn.read_to_end(&mut raw)?;
    let text = String::from_utf8_lossy(&raw);
    let bad = || std::io::Error::new(std::io::ErrorKind::InvalidData, "malformed HTTP response");
    let (head, body) = text.split_once("\r\n\r\n").ok_or_else(bad)?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(bad)?;
    Ok((status, body.to_owned()))
}
