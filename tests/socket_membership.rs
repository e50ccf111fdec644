//! The §11 socket embedding over the *full* membership stack, in real
//! time, a one-shard executor per socket: views form, totally ordered
//! traffic flows, a member leaves — all behind `sendto`/`recvfrom`.

use horus::socket::GroupSocket;
use horus_core::{EndpointAddr, GroupAddr, Up};
use horus_net::LoopbackNet;
use std::time::Duration;

fn ep(i: u64) -> EndpointAddr {
    EndpointAddr::new(i)
}

const STACK: &str = "TOTAL:MBRSHIP:FRAG:NAK:COM(promiscuous=true)";

#[test]
fn sockets_form_a_virtually_synchronous_group() {
    let net = LoopbackNet::new();
    let g = GroupAddr::new(1);
    let mut socks: Vec<GroupSocket> =
        (1..=3).map(|i| GroupSocket::bind(&net, ep(i), STACK).unwrap()).collect();
    for s in &socks {
        s.join(g);
    }
    // Merge the group behind the scenes.
    std::thread::sleep(Duration::from_millis(30));
    socks[1].merge(ep(1));
    for s in &mut socks[..2] {
        assert!(s.wait_for_view(2, Duration::from_secs(10)).is_some(), "2-member view forms");
    }
    socks[2].merge(ep(1));
    for s in &mut socks {
        let v = s
            .wait_for_view(3, Duration::from_secs(10))
            .expect("full view forms through the socket API");
        assert_eq!(v.len(), 3);
    }

    // Concurrent sendto from two members: every socket receives both, in
    // the same (total) order.
    socks[0].sendto(&b"from one"[..]);
    socks[2].sendto(&b"from three"[..]);
    let mut orders = Vec::new();
    for (i, s) in socks.iter_mut().enumerate() {
        let a = s.recvfrom(Duration::from_secs(10)).unwrap_or_else(|| panic!("socket {i} #1"));
        let b = s.recvfrom(Duration::from_secs(10)).unwrap_or_else(|| panic!("socket {i} #2"));
        orders.push(vec![a, b]);
    }
    assert_eq!(orders[0], orders[1], "total order across sockets");
    assert_eq!(orders[0], orders[2]);

    // One member leaves; the others observe the LEAVE and the shrunk view.
    let leaver = socks.pop().expect("three sockets");
    leaver.close();
    for s in &mut socks {
        let v = s.wait_for_view(0, Duration::from_secs(10)).expect("views keep flowing");
        // Wait specifically for the 2-member view.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        let mut v = v;
        while v.len() != 2 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
            if let Some(nv) = s.current_view() {
                v = nv;
            }
        }
        assert_eq!(v.len(), 2, "view shrank after the leave");
        assert!(s
            .take_events()
            .iter()
            .any(|u| matches!(u, Up::Leave { member } if *member == ep(3))));
    }
    for s in socks {
        s.close();
    }
}
