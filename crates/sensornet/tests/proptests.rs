//! Property-based tests for the sensor-network substrate.

use coreda_sensornet::detect::{Detector, Thresholds};
use coreda_sensornet::led::{BlinkPattern, LedColor};
use coreda_sensornet::node::NodeId;
use coreda_sensornet::packet::{crc16, Packet, Payload};
use coreda_sensornet::sensors::{Reading, Vec3};
use coreda_sensornet::trace::SignalTrace;
use proptest::prelude::*;

fn arb_reading() -> impl Strategy<Value = Reading> {
    prop_oneof![
        (-4.0f64..4.0, -4.0f64..4.0, -4.0f64..4.0)
            .prop_map(|(x, y, z)| Reading::Accel(Vec3::new(x, y, z))),
        (50.0f64..150.0).prop_map(Reading::Pressure),
        (0.0f64..2000.0).prop_map(Reading::Brightness),
        (-20.0f64..60.0).prop_map(Reading::Temperature),
        any::<bool>().prop_map(Reading::Motion),
    ]
}

fn arb_payload() -> impl Strategy<Value = Payload> {
    prop_oneof![
        any::<u16>().prop_map(|a| Payload::ToolUse { activation_milli: a }),
        any::<u16>().prop_map(|s| Payload::Ack { acked_seq: s }),
        Just(Payload::Heartbeat),
        (any::<bool>(), any::<u8>(), 0u64..u64::from(u16::MAX)).prop_map(|(red, blinks, period)| {
            Payload::Led {
                pattern: BlinkPattern {
                    color: if red { LedColor::Red } else { LedColor::Green },
                    blinks,
                    period_ms: period,
                },
            }
        }),
    ]
}

/// The bitwise CRC-16/CCITT-FALSE loop (poly 0x1021, init 0xFFFF): the
/// reference the table-driven `crc16` must match.
fn crc16_reference(data: &[u8]) -> u16 {
    let mut crc: u16 = 0xFFFF;
    for &byte in data {
        crc ^= u16::from(byte) << 8;
        for _ in 0..8 {
            crc = if crc & 0x8000 != 0 { (crc << 1) ^ 0x1021 } else { crc << 1 };
        }
    }
    crc
}

fn arb_packet() -> impl Strategy<Value = Packet> {
    (any::<u16>(), any::<u16>(), any::<u64>(), arb_payload())
        .prop_map(|(src, seq, ts, payload)| Packet::new(NodeId::new(src), seq, ts, payload))
}

proptest! {
    /// Every packet round-trips through the wire format.
    #[test]
    fn packet_roundtrip(p in arb_packet()) {
        let bytes = p.encode();
        prop_assert!(bytes.len() <= coreda_sensornet::packet::MAX_FRAME_LEN);
        prop_assert_eq!(Packet::decode(&bytes).unwrap(), p);
    }

    /// Any single-bit flip anywhere in a frame is rejected.
    #[test]
    fn single_bit_corruption_rejected(p in arb_packet(), byte in 0usize..32, bit in 0u8..8) {
        let mut bytes = p.encode().to_vec();
        let idx = byte % bytes.len();
        bytes[idx] ^= 1 << bit;
        prop_assert!(Packet::decode(&bytes).is_err());
    }

    /// Decoding never panics on arbitrary garbage.
    #[test]
    fn decode_is_total(garbage in proptest::collection::vec(any::<u8>(), 0..80)) {
        let _ = Packet::decode(&garbage);
    }

    /// CRC16 changes under any single-byte change (for short inputs).
    #[test]
    fn crc_detects_single_byte_change(
        data in proptest::collection::vec(any::<u8>(), 1..40),
        idx in 0usize..40,
        delta in 1u8..=255,
    ) {
        let idx = idx % data.len();
        let mut mutated = data.clone();
        mutated[idx] = mutated[idx].wrapping_add(delta);
        prop_assert_ne!(crc16(&data), crc16(&mutated));
    }

    /// The table-driven CRC equals the bitwise reference on any input.
    #[test]
    fn crc_matches_bitwise_reference(data in proptest::collection::vec(any::<u8>(), 0..=4096)) {
        prop_assert_eq!(crc16(&data), crc16_reference(&data));
    }

    /// The detector verdict equals "at least 3 of 10 above threshold", for
    /// any pattern of sample activations.
    #[test]
    fn detector_matches_specification(activations in proptest::collection::vec(0.0f64..1.0, 10)) {
        let det = Detector::new(Thresholds::default());
        let window: Vec<Reading> = activations
            .iter()
            // Put all deviation on x so activation ≈ |sqrt(x²+1) − 1|… use
            // a direct construction instead: z = 1 + a gives activation a.
            .map(|&a| Reading::Accel(Vec3::new(0.0, 0.0, 1.0 + a)))
            .collect();
        let expected = activations
            .iter()
            .filter(|&&a| a > det.thresholds().accel)
            .count()
            >= 3;
        prop_assert_eq!(det.judge_window(&window), expected);
    }

    /// Signal traces round-trip losslessly through the text format.
    #[test]
    fn trace_roundtrip(
        tool in any::<u16>(),
        readings in proptest::collection::vec(arb_reading(), 0..50),
    ) {
        let trace = SignalTrace { tool, period_ms: 100, readings };
        let parsed = SignalTrace::from_text(&trace.to_text()).unwrap();
        prop_assert_eq!(parsed, trace);
    }

    /// Trace parsing never panics on arbitrary text.
    #[test]
    fn trace_parse_is_total(garbage in "\\PC{0,200}") {
        let _ = SignalTrace::from_text(&garbage);
    }

    /// Blink schedules are sorted, alternate on/off, and span the pattern
    /// duration.
    #[test]
    fn blink_schedule_well_formed(blinks in 1u8..20, period in 2u64..5_000) {
        use coreda_des::time::SimTime;
        let p = BlinkPattern { color: LedColor::Green, blinks, period_ms: period };
        let sched = p.schedule(SimTime::from_secs(1));
        prop_assert_eq!(sched.len(), usize::from(blinks) * 2);
        for (i, &(t, on)) in sched.iter().enumerate() {
            prop_assert_eq!(on, i % 2 == 0, "entries must alternate on/off");
            prop_assert!(t >= SimTime::from_secs(1));
        }
        for w in sched.windows(2) {
            prop_assert!(w[0].0 <= w[1].0);
        }
    }
}
