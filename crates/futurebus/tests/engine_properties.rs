//! Property tests of the Futurebus transaction engine's data-path semantics:
//! the memory-update rules of §2/§4 must hold for arbitrary transaction
//! sequences against arbitrary snooper responses.
//!
//! Inputs come from the in-tree `moesi::rng::SmallRng` with fixed seeds, 64
//! cases per property.

use futurebus::{
    BusModule, BusObservation, Futurebus, PushWrite, RetryPolicy, TimingConfig, TransactionRequest,
};
use moesi::rng::SmallRng;
use moesi::{MasterSignals, ResponseSignals};

const LINE: usize = 16;
const CASES: u64 = 64;

/// A snooper scripted by a response list, recording everything it observes.
struct Scripted {
    responses: Vec<ResponseSignals>,
    cursor: usize,
    line: Vec<u8>,
    seen_payloads: Vec<Vec<u8>>,
    pushes: usize,
}

impl Scripted {
    fn new(responses: Vec<ResponseSignals>) -> Self {
        Scripted {
            responses,
            cursor: 0,
            line: vec![0xAB; LINE],
            seen_payloads: Vec::new(),
            pushes: 0,
        }
    }
}

impl BusModule for Scripted {
    fn snoop(&mut self, _req: &TransactionRequest) -> ResponseSignals {
        let r = self.responses[self.cursor % self.responses.len()];
        self.cursor += 1;
        r
    }
    fn supply_line(&mut self, _addr: u64) -> Option<Box<[u8]>> {
        Some(self.line.clone().into_boxed_slice())
    }
    fn prepare_push(&mut self, _addr: u64) -> Option<PushWrite> {
        self.pushes += 1;
        Some(PushWrite {
            data: self.line.clone().into_boxed_slice(),
            signals: MasterSignals::CA,
        })
    }
    fn complete(&mut self, _req: &TransactionRequest, obs: &BusObservation<'_>) {
        if let Some((_, bytes)) = obs.write_data {
            self.seen_payloads.push(bytes.to_vec());
        }
    }
}

fn random_response(rng: &mut SmallRng) -> ResponseSignals {
    // No BS here (push loops are tested separately); at most one DI asserted
    // per transaction is the caller's responsibility, tested below with a
    // single snooper.
    ResponseSignals {
        ch: rng.gen_bool(0.5),
        di: rng.gen_bool(0.5),
        sl: rng.gen_bool(0.5),
        bs: false,
    }
}

#[derive(Clone, Debug)]
enum Txn {
    Read {
        ca: bool,
        im: bool,
    },
    Write {
        offset: usize,
        len: usize,
        bc: bool,
        ca: bool,
    },
    Invalidate,
}

fn random_txn(rng: &mut SmallRng) -> Txn {
    match rng.gen_range(0u32..3) {
        0 => Txn::Read {
            ca: rng.gen_bool(0.5),
            im: rng.gen_bool(0.5),
        },
        1 => {
            let len = rng.gen_range(1..4usize);
            Txn::Write {
                offset: rng.gen_range(0..LINE).min(LINE - len),
                len,
                bc: rng.gen_bool(0.5),
                ca: rng.gen_bool(0.5),
            }
        }
        _ => Txn::Invalidate,
    }
}

#[test]
fn memory_update_rules_hold_for_any_sequence() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(case.wrapping_mul(0xB05));
        let txns: Vec<(Txn, ResponseSignals)> = (0..rng.gen_range(1usize..40))
            .map(|_| (random_txn(&mut rng), random_response(&mut rng)))
            .collect();
        let mut bus = Futurebus::new(LINE, TimingConfig::default());
        // Shadow of what memory must contain.
        let mut shadow = [0u8; LINE];
        let addr = 0x40;

        for (i, (txn, response)) in txns.into_iter().enumerate() {
            let mut snooper = Scripted::new(vec![response]);
            let mut mods: Vec<&mut dyn BusModule> = vec![&mut snooper];
            match txn {
                Txn::Read { ca, im } => {
                    let signals = MasterSignals::new(ca, im, false);
                    let out = bus
                        .execute(&TransactionRequest::read(1, addr, signals), &mut mods)
                        .expect("read");
                    // Reads never modify memory.
                    assert_eq!(&bus.memory().peek_line(addr)[..], &shadow[..], "txn {}", i);
                    // Data came from the DI snooper or from memory.
                    let data = out.data.expect("reads return data");
                    if response.di {
                        assert_eq!(&data[..], &[0xAB; LINE][..]);
                    } else {
                        assert_eq!(&data[..], &shadow[..]);
                    }
                    assert_eq!(out.ch_seen, response.ch);
                }
                Txn::Write {
                    offset,
                    len,
                    bc,
                    ca,
                } => {
                    let bytes = vec![i as u8; len];
                    let signals = MasterSignals::new(ca, true, bc);
                    bus.execute(
                        &TransactionRequest::write(1, addr, signals, offset, bytes.clone()),
                        &mut mods,
                    )
                    .expect("write");
                    if bc {
                        // Broadcast writes always reach memory; SL snoopers
                        // receive the payload.
                        shadow[offset..offset + len].copy_from_slice(&bytes);
                        if response.sl {
                            assert_eq!(snooper.seen_payloads.last(), Some(&bytes));
                        }
                    } else if response.di {
                        // Captured: memory untouched, owner got the payload.
                        assert_eq!(snooper.seen_payloads.last(), Some(&bytes));
                    } else {
                        shadow[offset..offset + len].copy_from_slice(&bytes);
                    }
                    assert_eq!(&bus.memory().peek_line(addr)[..], &shadow[..], "txn {}", i);
                }
                Txn::Invalidate => {
                    bus.execute(
                        &TransactionRequest::address_only(1, addr, MasterSignals::CA_IM),
                        &mut mods,
                    )
                    .expect("invalidate");
                    assert_eq!(&bus.memory().peek_line(addr)[..], &shadow[..]);
                }
            }
        }
    }
}

#[test]
fn stats_add_up_for_any_sequence() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(case.wrapping_add(0x57A7));
        let txns: Vec<Txn> = (0..rng.gen_range(1usize..40))
            .map(|_| random_txn(&mut rng))
            .collect();
        let mut bus = Futurebus::new(LINE, TimingConfig::default());
        let mut reads = 0u64;
        let mut writes = 0u64;
        let mut invals = 0u64;
        for txn in txns {
            match txn {
                Txn::Read { ca, im } => {
                    bus.execute(
                        &TransactionRequest::read(0, 0, MasterSignals::new(ca, im, false)),
                        &mut [],
                    )
                    .expect("read");
                    reads += 1;
                }
                Txn::Write {
                    offset,
                    len,
                    bc,
                    ca,
                } => {
                    bus.execute(
                        &TransactionRequest::write(
                            0,
                            0,
                            MasterSignals::new(ca, true, bc),
                            offset,
                            vec![0; len],
                        ),
                        &mut [],
                    )
                    .expect("write");
                    writes += 1;
                }
                Txn::Invalidate => {
                    bus.execute(
                        &TransactionRequest::address_only(0, 0, MasterSignals::CA_IM),
                        &mut [],
                    )
                    .expect("invalidate");
                    invals += 1;
                }
            }
        }
        let s = bus.stats();
        assert_eq!(s.reads, reads);
        assert_eq!(s.writes, writes);
        assert_eq!(s.address_only, invals);
        assert_eq!(s.transactions, reads + writes + invals);
        assert!(s.busy_ns > 0);
    }
}

#[test]
fn bs_push_rounds_always_converge_or_error() {
    // With a retry limit of 4, the abort count cycles through every value
    // the limit allows and the first it refuses; the line address is drawn
    // per case.
    const LIMIT: usize = 4;
    let mut rng = SmallRng::seed_from_u64(0xB5);
    for case in 0..CASES {
        let pre_aborts = (case % (LIMIT as u64 + 2)) as usize;
        let addr = rng.gen_range(0u64..1024) * LINE as u64;
        // A snooper that aborts `pre_aborts` times before settling.
        let mut responses = vec![
            ResponseSignals {
                bs: true,
                ..ResponseSignals::NONE
            };
            pre_aborts
        ];
        responses.push(ResponseSignals::CH);
        let mut snooper = Scripted::new(responses);
        let mut bus = Futurebus::new(LINE, TimingConfig::default());
        bus.set_retry_policy(RetryPolicy {
            max_retries: LIMIT as u32,
            ..RetryPolicy::default()
        });
        let mut mods: Vec<&mut dyn BusModule> = vec![&mut snooper];
        let result = bus.execute(
            &TransactionRequest::read(1, addr, MasterSignals::CA),
            &mut mods,
        );
        if pre_aborts <= LIMIT {
            let out = result.expect("within the retry limit");
            assert_eq!(out.aborts as usize, pre_aborts);
            assert_eq!(snooper.pushes, pre_aborts);
            if pre_aborts > 0 {
                // The push left the snooper's line in memory.
                assert_eq!(&out.data.expect("read data")[..], &[0xAB; LINE][..]);
            }
        } else {
            assert!(result.is_err(), "must hit the retry limit");
        }
    }
}
