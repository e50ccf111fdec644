//! The UNIX-socket embedding (§1, §11), running in real time, one
//! scheduling thread per socket: "a UNIX sendto operation will be mapped to a
//! multicast, and a recvfrom will receive the next incoming message".
//!
//! Three "processes" chat through `GroupSocket`s without ever seeing the
//! HCPI, views, or flushes — Horus hides behind the datagram API.
//!
//! ```text
//! cargo run --example sockets
//! ```

use horus::socket::GroupSocket;
use horus_core::{EndpointAddr, GroupAddr};
use horus_net::LoopbackNet;
use std::time::Duration;

fn main() -> Result<(), horus_core::HorusError> {
    let net = LoopbackNet::new();
    let group = GroupAddr::new(1);

    // Each socket runs its own protocol stack — checksummed reliable FIFO.
    let mut sockets: Vec<GroupSocket> = (1..=3)
        .map(|i| GroupSocket::bind(&net, EndpointAddr::new(i), "CHKSUM:NAK:COM"))
        .collect::<Result<_, _>>()?;
    for s in &sockets {
        s.join(group);
        println!("{} joined {group}", s.local_addr());
    }
    std::thread::sleep(Duration::from_millis(30));

    sockets[0].sendto(&b"hello from ep1"[..]);
    sockets[1].sendto(&b"and from ep2"[..]);

    for s in &mut sockets {
        let me = s.local_addr();
        for _ in 0..2 {
            match s.recvfrom(Duration::from_secs(5)) {
                Some((from, body)) => {
                    println!("{me} <- {from}: {}", String::from_utf8_lossy(&body))
                }
                None => panic!("{me}: timed out waiting for a datagram"),
            }
        }
    }
    for s in sockets {
        s.close();
    }
    println!("socket embedding works: no HCPI in sight ✓");
    Ok(())
}
