//! A down server's backlog with all four classes of delayed cuckoo
//! routing queued. While a server is live its total backlog is the
//! routing word in class 0's control entry; while it is down that word
//! reads `u32::MAX` and `backlog` sums the class lengths instead. This
//! file drives that sum through every class, across a migration, a
//! flush and enqueues made while the server is down, and checks the
//! routing word again once the server returns.

use std::collections::VecDeque;

use rlb_core::{ClassSpec, QueueArray};

const CAPS: [u32; 4] = [3, 2, 4, 3];
const SERVERS: u32 = 3;
const DOWN_SERVER: u32 = 1;

/// One FIFO per (server, class) and a liveness flag per server.
struct Model {
    queues: Vec<[VecDeque<u32>; 4]>,
    live: Vec<bool>,
}

impl Model {
    fn backlog(&self, server: u32) -> u32 {
        self.queues[server as usize]
            .iter()
            .map(|q| q.len() as u32)
            .sum()
    }

    fn enqueue(&mut self, q: &mut QueueArray, server: u32, class: usize, v: u32) {
        q.enqueue(server, class, v).unwrap();
        self.queues[server as usize][class].push_back(v);
    }

    /// What `migrate_class` must do: the oldest entries that fit move,
    /// the rest are dropped, newest last.
    fn migrate(&mut self, from: usize, to: usize) -> Vec<u32> {
        let mut dropped = Vec::new();
        for queues in &mut self.queues {
            while let Some(v) = queues[from].pop_front() {
                if queues[to].len() < CAPS[to] as usize {
                    queues[to].push_back(v);
                } else {
                    dropped.push(v);
                }
            }
        }
        dropped
    }
}

fn check(q: &QueueArray, model: &Model, context: &str) {
    for server in 0..SERVERS {
        for class in 0..CAPS.len() {
            assert_eq!(
                q.class_backlog(server, class),
                model.queues[server as usize][class].len() as u32,
                "{context}: server {server} class {class}"
            );
        }
        let backlog = model.backlog(server);
        let live = model.live[server as usize];
        assert_eq!(q.backlog(server), backlog, "{context}: server {server}");
        assert_eq!(q.is_live(server), live, "{context}: server {server}");
        let route = if live { backlog } else { u32::MAX };
        assert_eq!(q.route_backlog(server), route, "{context}: server {server}");
    }
    let expected: Vec<u32> = (0..SERVERS).map(|s| model.backlog(s)).collect();
    assert_eq!(q.backlogs().collect::<Vec<_>>(), expected, "{context}");
}

#[test]
fn four_class_backlog_of_a_down_server_is_its_class_sum() {
    let classes = CAPS.map(|capacity| ClassSpec {
        capacity,
        drain_per_step: 1,
    });
    let mut q = QueueArray::new(SERVERS as usize, &classes);
    let mut model = Model {
        queues: (0..SERVERS).map(|_| Default::default()).collect(),
        live: vec![true; SERVERS as usize],
    };
    let mut next = 0u32;
    let mut fill = |q: &mut QueueArray, model: &mut Model, server: u32, class: usize, n: u32| {
        for _ in 0..n {
            model.enqueue(q, server, class, next);
            next += 1;
        }
    };
    // Every class of the server that goes down holds work, classes 0
    // and 1 at capacity; a neighbour holds some too.
    for (class, n) in [3, 2, 2, 1].into_iter().enumerate() {
        fill(&mut q, &mut model, DOWN_SERVER, class, n);
    }
    fill(&mut q, &mut model, 0, 0, 2);
    check(&q, &model, "all live");

    q.set_live(DOWN_SERVER, false);
    model.live[DOWN_SERVER as usize] = false;
    check(&q, &model, "down");

    // Q -> Q': class 2 has room for two of class 0's three entries.
    let mut dropped = Vec::new();
    let n = q.migrate_class(0, 2, |v| dropped.push(v));
    assert_eq!(dropped, model.migrate(0, 2));
    assert_eq!(n, dropped.len() as u64);
    assert_eq!(n, 1, "the migration must drop from the down server");
    check(&q, &model, "down, after migrate");

    fill(&mut q, &mut model, DOWN_SERVER, 0, 3);
    check(&q, &model, "down, enqueued while down");

    q.flush_all(|_| {});
    for queues in &mut model.queues {
        queues.iter_mut().for_each(VecDeque::clear);
    }
    check(&q, &model, "down, after flush");

    for class in 0..CAPS.len() {
        fill(&mut q, &mut model, DOWN_SERVER, class, 1 + class as u32 % 2);
    }
    check(&q, &model, "down, refilled");

    q.set_live(DOWN_SERVER, true);
    model.live[DOWN_SERVER as usize] = true;
    check(&q, &model, "back up");
    assert_eq!(q.route_backlog(DOWN_SERVER), q.backlog(DOWN_SERVER));
    assert_eq!(q.backlog(DOWN_SERVER), 6);
}
