//! Value ↔ byte codecs for lanes and control events.
//!
//! The WAL record format ([`hierod_store::wal`]) treats lane metadata
//! and control payloads as opaque byte strings; this module is the one
//! place that gives those bytes meaning. It started as a private detail
//! of the durability layer, but the same encodings are now a **public
//! codec role**: the network wire protocol ([`hierod-wire`]) ships
//! `LaneDef`/`Control`/`Sample` records verbatim, so a captured ingest
//! stream is replayable through the store — both sides must agree on
//! exactly these bytes.
//!
//! Every decoder is total: arbitrary input either parses fully or
//! returns `None` — no panics, no indexing — so frames arriving off the
//! network degrade into a rejection the caller can count.
//!
//! [`hierod-wire`]: ../../hierod_wire/index.html

use hierod_hierarchy::{CaqResult, JobConfig, PhaseKind, RedundancyGroup, Sensor, SensorKind};
use hierod_store::codec;

use crate::detector::ControlEvent;
use crate::lane::{LaneId, LaneKind};

const LANE_KIND_PHASE: u8 = 0;
const LANE_KIND_ENV: u8 = 1;

/// Serialises a [`LaneId`] as opaque lane metadata for the store and
/// the wire protocol.
pub fn encode_lane(id: &LaneId) -> Vec<u8> {
    let mut out = Vec::new();
    out.push(match id.kind {
        LaneKind::Phase => LANE_KIND_PHASE,
        LaneKind::Environment => LANE_KIND_ENV,
    });
    codec::put_str(&mut out, &id.machine);
    codec::put_str(&mut out, &id.sensor);
    out
}

/// Total inverse of [`encode_lane`]; `None` on any malformation.
pub fn decode_lane(bytes: &[u8]) -> Option<LaneId> {
    let mut buf = bytes;
    let buf = &mut buf;
    let kind = match codec::take_u8(buf)? {
        LANE_KIND_PHASE => LaneKind::Phase,
        LANE_KIND_ENV => LaneKind::Environment,
        _ => return None,
    };
    let machine = codec::take_str(buf)?;
    let sensor = codec::take_str(buf)?;
    buf.is_empty().then_some(LaneId {
        machine,
        sensor,
        kind,
    })
}

/// Stable one-byte code of a [`SensorKind`] (storage + wire).
pub(crate) fn sensor_kind_code(kind: SensorKind) -> u8 {
    match kind {
        SensorKind::BedTemperature => 0,
        SensorKind::ChamberTemperature => 1,
        SensorKind::LaserPower => 2,
        SensorKind::Vibration => 3,
        SensorKind::OxygenLevel => 4,
        SensorKind::RoomTemperature => 5,
        SensorKind::Humidity => 6,
    }
}

/// Inverse of [`sensor_kind_code`].
pub(crate) fn sensor_kind_from(code: u8) -> Option<SensorKind> {
    match code {
        0 => Some(SensorKind::BedTemperature),
        1 => Some(SensorKind::ChamberTemperature),
        2 => Some(SensorKind::LaserPower),
        3 => Some(SensorKind::Vibration),
        4 => Some(SensorKind::OxygenLevel),
        5 => Some(SensorKind::RoomTemperature),
        6 => Some(SensorKind::Humidity),
        _ => None,
    }
}

/// Stable one-byte code of a [`PhaseKind`] (storage + wire).
pub fn phase_kind_code(kind: PhaseKind) -> u8 {
    match kind {
        PhaseKind::Preparation => 0,
        PhaseKind::WarmUp => 1,
        PhaseKind::Calibration => 2,
        PhaseKind::Printing => 3,
        PhaseKind::Cooling => 4,
    }
}

/// Inverse of [`phase_kind_code`].
pub fn phase_kind_from(code: u8) -> Option<PhaseKind> {
    match code {
        0 => Some(PhaseKind::Preparation),
        1 => Some(PhaseKind::WarmUp),
        2 => Some(PhaseKind::Calibration),
        3 => Some(PhaseKind::Printing),
        4 => Some(PhaseKind::Cooling),
        _ => None,
    }
}

const EV_MACHINE_UP: u8 = 1;
const EV_JOB_START: u8 = 2;
const EV_PHASE_START: u8 = 3;
const EV_JOB_COMPLETE: u8 = 4;

fn put_str_list(out: &mut Vec<u8>, items: &[String]) {
    codec::put_varint(out, items.len() as u64);
    for s in items {
        codec::put_str(out, s);
    }
}

fn take_str_list(buf: &mut &[u8]) -> Option<Vec<String>> {
    let n = codec::take_varint(buf)?;
    let mut out = Vec::new();
    for _ in 0..n {
        out.push(codec::take_str(buf)?);
    }
    Some(out)
}

/// Serialises a [`ControlEvent`] as a WAL/segment/wire payload.
pub fn encode_control(event: &ControlEvent) -> Vec<u8> {
    let mut out = Vec::new();
    match event {
        ControlEvent::MachineUp {
            machine,
            sensors,
            redundancy,
            env_sensors,
        } => {
            out.push(EV_MACHINE_UP);
            codec::put_str(&mut out, machine);
            codec::put_varint(&mut out, sensors.len() as u64);
            for s in sensors {
                codec::put_str(&mut out, &s.name);
                out.push(sensor_kind_code(s.kind));
            }
            codec::put_varint(&mut out, redundancy.len() as u64);
            for g in redundancy {
                out.push(sensor_kind_code(g.kind));
                put_str_list(&mut out, &g.sensors);
            }
            put_str_list(&mut out, env_sensors);
        }
        ControlEvent::JobStart {
            machine,
            job,
            start,
            config,
        } => {
            out.push(EV_JOB_START);
            codec::put_str(&mut out, machine);
            codec::put_str(&mut out, job);
            codec::put_u64(&mut out, *start);
            // One count covers both parallel lists, so the decoded
            // pair is equal-length by construction.
            codec::put_varint(&mut out, config.names.len() as u64);
            for name in &config.names {
                codec::put_str(&mut out, name);
            }
            for v in &config.values {
                codec::put_f64(&mut out, *v);
            }
        }
        ControlEvent::PhaseStart {
            machine,
            kind,
            sensors,
        } => {
            out.push(EV_PHASE_START);
            codec::put_str(&mut out, machine);
            out.push(phase_kind_code(*kind));
            put_str_list(&mut out, sensors);
        }
        ControlEvent::JobComplete { machine, caq } => {
            out.push(EV_JOB_COMPLETE);
            codec::put_str(&mut out, machine);
            codec::put_varint(&mut out, caq.names.len() as u64);
            for name in &caq.names {
                codec::put_str(&mut out, name);
            }
            for v in &caq.values {
                codec::put_f64(&mut out, *v);
            }
            out.push(u8::from(caq.passed));
        }
    }
    out
}

/// Total inverse of [`encode_control`]; `None` on any malformation
/// (WAL payloads come from CRC-verified records, so a `None` there
/// means a logic error; wire payloads are untrusted and a `None` is an
/// ordinary protocol rejection).
pub fn decode_control(bytes: &[u8]) -> Option<ControlEvent> {
    let mut buf = bytes;
    let buf = &mut buf;
    let event = match codec::take_u8(buf)? {
        EV_MACHINE_UP => {
            let machine = codec::take_str(buf)?;
            let n = codec::take_varint(buf)?;
            let mut sensors = Vec::new();
            for _ in 0..n {
                let name = codec::take_str(buf)?;
                let kind = sensor_kind_from(codec::take_u8(buf)?)?;
                sensors.push(Sensor { name, kind });
            }
            let n = codec::take_varint(buf)?;
            let mut redundancy = Vec::new();
            for _ in 0..n {
                let kind = sensor_kind_from(codec::take_u8(buf)?)?;
                let group = take_str_list(buf)?;
                redundancy.push(RedundancyGroup {
                    kind,
                    sensors: group,
                });
            }
            let env_sensors = take_str_list(buf)?;
            ControlEvent::MachineUp {
                machine,
                sensors,
                redundancy,
                env_sensors,
            }
        }
        EV_JOB_START => {
            let machine = codec::take_str(buf)?;
            let job = codec::take_str(buf)?;
            let start = codec::take_u64(buf)?;
            let n = codec::take_varint(buf)?;
            let mut names = Vec::new();
            for _ in 0..n {
                names.push(codec::take_str(buf)?);
            }
            let mut values = Vec::new();
            for _ in 0..n {
                values.push(codec::take_f64(buf)?);
            }
            ControlEvent::JobStart {
                machine,
                job,
                start,
                config: JobConfig { names, values },
            }
        }
        EV_PHASE_START => {
            let machine = codec::take_str(buf)?;
            let kind = phase_kind_from(codec::take_u8(buf)?)?;
            let sensors = take_str_list(buf)?;
            ControlEvent::PhaseStart {
                machine,
                kind,
                sensors,
            }
        }
        EV_JOB_COMPLETE => {
            let machine = codec::take_str(buf)?;
            let n = codec::take_varint(buf)?;
            let mut names = Vec::new();
            for _ in 0..n {
                names.push(codec::take_str(buf)?);
            }
            let mut values = Vec::new();
            for _ in 0..n {
                values.push(codec::take_f64(buf)?);
            }
            let passed = match codec::take_u8(buf)? {
                0 => false,
                1 => true,
                _ => return None,
            };
            ControlEvent::JobComplete {
                machine,
                caq: CaqResult {
                    names,
                    values,
                    passed,
                },
            }
        }
        _ => return None,
    };
    buf.is_empty().then_some(event)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lane_codec_round_trips() {
        for kind in [LaneKind::Phase, LaneKind::Environment] {
            let id = LaneId {
                machine: "m0".into(),
                sensor: "m0.bed.0".into(),
                kind,
            };
            assert_eq!(decode_lane(&encode_lane(&id)), Some(id));
        }
        assert_eq!(decode_lane(&[9]), None);
        assert_eq!(decode_lane(&[]), None);
    }

    #[test]
    fn control_codec_round_trips() {
        let sensors = vec![Sensor::new("m0.bed.0", SensorKind::BedTemperature)];
        let redundancy = vec![RedundancyGroup::new(
            SensorKind::BedTemperature,
            vec!["m0.bed.0".into()],
        )];
        let config = JobConfig::new(vec!["speed".into()], vec![1.25]);
        let phase_sensors = ["m0.bed.0".to_string(), "m0.laser".to_string()];
        let caq = CaqResult::new(vec!["q".into()], vec![0.5], false);
        // Each constructor next to the literal variant it must build.
        let events = [
            (
                ControlEvent::machine_up(
                    "m0",
                    sensors.clone(),
                    redundancy.clone(),
                    &["m0.room".into()],
                ),
                ControlEvent::MachineUp {
                    machine: "m0".into(),
                    sensors,
                    redundancy,
                    env_sensors: vec!["m0.room".into()],
                },
            ),
            (
                ControlEvent::job_start("m0", "j0", 17, config.clone()),
                ControlEvent::JobStart {
                    machine: "m0".into(),
                    job: "j0".into(),
                    start: 17,
                    config,
                },
            ),
            (
                ControlEvent::phase_start("m0", PhaseKind::Printing, &phase_sensors),
                ControlEvent::PhaseStart {
                    machine: "m0".into(),
                    kind: PhaseKind::Printing,
                    sensors: phase_sensors.to_vec(),
                },
            ),
            (
                ControlEvent::job_complete("m0", caq.clone()),
                ControlEvent::JobComplete {
                    machine: "m0".into(),
                    caq,
                },
            ),
        ];
        for (built, literal) in &events {
            assert_eq!(built, literal, "constructor builds the literal variant");
            let bytes = encode_control(built);
            assert_eq!(decode_control(&bytes).as_ref(), Some(literal));
        }
        // Every truncation of a valid payload is rejected, never panics.
        let bytes = encode_control(&events[0].0);
        for cut in 0..bytes.len() {
            assert!(decode_control(&bytes[..cut]).is_none(), "cut {cut}");
        }
    }
}
