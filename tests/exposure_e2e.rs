//! End-to-end Exposure Notification protocol tests across crates:
//! device lifecycle → diagnosis-key upload → CDN export wire format →
//! download → matching → risk, including the privacy properties the
//! paper's §1 describes.

use cwa_repro::exposure::export::TemporaryExposureKeyExport;
use cwa_repro::exposure::time::{EnIntervalNumber, TEK_ROLLING_PERIOD};
use cwa_repro::exposure::{BleAdvertisement, Device};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

const DAY: u32 = TEK_ROLLING_PERIOD;

/// A 30-person office where one person is infectious: everyone who sat
/// nearby gets flagged, nobody else does, and everything travels through
/// the real export wire format.
#[test]
fn office_outbreak_end_to_end() {
    let mut rng = ChaCha8Rng::seed_from_u64(42);
    let mut devices: Vec<Device> = (0..30).map(Device::new).collect();
    let day0 = EnIntervalNumber(18_000 * DAY);

    // Day 0, core hours: device 0 is infectious. Devices 1–9 sit close
    // (25 dB), devices 10–19 far (80 dB), devices 20–29 absent.
    for interval in 0..6u32 {
        let t = day0.advance(54 + interval);
        for d in devices.iter_mut() {
            d.roll_key_if_needed(&mut rng, t);
        }
        let adv = devices[0].advertise(t);
        let payload = adv.encode_full();
        let received = BleAdvertisement::decode(&payload).expect("valid BLE payload");
        for (i, d) in devices.iter_mut().enumerate() {
            match i {
                1..=9 => d.observe(&received, t, 25, 10),
                10..=19 => d.observe(&received, t, 80, 10),
                _ => {}
            }
        }
    }

    // Day 2: device 0 tests positive, uploads via the real file format.
    let day2 = EnIntervalNumber(day0.0 + 2 * DAY);
    for d in devices.iter_mut() {
        d.roll_key_if_needed(&mut rng, day2);
        d.expire(day2);
    }
    let keys = devices[0].upload_diagnosis_keys(day2, 6);
    assert!(!keys.is_empty());
    let export = TemporaryExposureKeyExport::new_de(0, 86_400, keys);
    let wire = export.encode();
    let downloaded = TemporaryExposureKeyExport::decode(&wire).expect("round-trip");

    let mut flagged = Vec::new();
    for (i, d) in devices.iter().enumerate().skip(1) {
        let matches = d.check_exposure(&downloaded.keys, day2);
        let risk = matches.iter().map(|m| m.risk_score.0).max().unwrap_or(0);
        if risk > 0 {
            flagged.push(i);
        }
    }
    assert_eq!(
        flagged,
        (1..=9).collect::<Vec<_>>(),
        "exactly the close contacts flagged"
    );
}

/// Privacy: an eavesdropper recording all broadcasts cannot link a
/// device across intervals, but the owner of the diagnosis keys can
/// retroactively match.
#[test]
fn eavesdropper_cannot_link_but_matcher_can() {
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    let mut phone = Device::new(1);
    let day0 = EnIntervalNumber(18_100 * DAY);
    phone.roll_key_if_needed(&mut rng, day0);

    // 144 broadcasts of one day: all distinct, no common structure.
    let rpis: Vec<[u8; 16]> = (0..DAY)
        .map(|i| phone.advertise(day0.advance(i)).rpi.0)
        .collect();
    let distinct: std::collections::HashSet<_> = rpis.iter().collect();
    assert_eq!(distinct.len(), rpis.len());

    // Byte-position frequency looks uniform-ish: no stable byte.
    for pos in 0..16 {
        let values: std::collections::HashSet<u8> = rpis.iter().map(|r| r[pos]).collect();
        assert!(
            values.len() > 64,
            "byte {pos} takes {} values over 144 RPIs",
            values.len()
        );
    }

    // Yet the published key re-derives every one of them.
    let day1 = EnIntervalNumber(day0.0 + DAY);
    phone.roll_key_if_needed(&mut rng, day1);
    let keys = phone.upload_diagnosis_keys(day1, 5);
    let derived: std::collections::HashSet<[u8; 16]> = keys
        .iter()
        .flat_map(|k| k.tek.all_rpis())
        .map(|r| r.0)
        .collect();
    assert!(rpis.iter().all(|r| derived.contains(r)));
}

/// Retention: encounters and keys older than 14 days disappear, so an
/// upload never discloses more than the retention window.
#[test]
fn fourteen_day_retention_bounds_disclosure() {
    let mut rng = ChaCha8Rng::seed_from_u64(2);
    let mut phone = Device::new(1);
    for day in 0..30u32 {
        let t = EnIntervalNumber((18_200 + day) * DAY);
        phone.roll_key_if_needed(&mut rng, t);
        phone.expire(t);
    }
    let now = EnIntervalNumber((18_200 + 30) * DAY);
    phone.roll_key_if_needed(&mut rng, now);
    let keys = phone.upload_diagnosis_keys(now, 5);
    assert!(keys.len() <= 15, "disclosed {} keys", keys.len());
    for k in &keys {
        assert!(
            now.0 - k.tek.rolling_start_interval_number <= 15 * DAY,
            "key older than retention window disclosed"
        );
    }
}

/// The export file size drives the paper's measured download flows; it
/// must scale like the real format (~28 bytes/key + header).
#[test]
fn export_sizes_match_expected_wire_overhead() {
    let mut rng = ChaCha8Rng::seed_from_u64(3);
    let mut sizes = Vec::new();
    for n in [0usize, 1, 10, 100, 1000] {
        let keys: Vec<_> = (0..n)
            .map(|_| {
                let tek = cwa_repro::exposure::TemporaryExposureKey::generate(
                    &mut rng,
                    EnIntervalNumber(18_300 * DAY),
                );
                cwa_repro::exposure::DiagnosisKey::new(tek, 4)
            })
            .collect();
        let export = TemporaryExposureKeyExport::new_de(0, 86_400, keys);
        sizes.push(export.encoded_len());
    }
    assert!(sizes.windows(2).all(|w| w[1] > w[0]));
    let per_key = (sizes[4] - sizes[3]) as f64 / 900.0;
    assert!(
        (24.0..36.0).contains(&per_key),
        "marginal key cost {per_key} bytes"
    );
}

/// The CDN sizes each day's key download in closed form instead of
/// building and signing the export. The closed form must equal the
/// real signed export.bin + export.sig (plus the fixed container
/// overhead) across key-count varint boundaries and the whole day range
/// a `--days inf` run covers.
#[test]
fn closed_form_export_size_matches_signed_export() {
    use cwa_repro::crypto::SigningKey;
    use cwa_repro::exposure::signature::SignatureInfo;
    use cwa_repro::exposure::{sign_export, DiagnosisKey, TemporaryExposureKey};
    use cwa_repro::simnet::CdnConfig;

    let cdn = CdnConfig::default();
    let mut secret = [0u8; 32];
    secret[..16].copy_from_slice(b"cwa-backend-sign");
    secret[31] = 1;
    let backend_key = SigningKey::from_bytes(&secret);
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    for day in [0u32, 10, 3649] {
        let start = EnIntervalNumber(1_592_179_200 / 600 + day * DAY);
        for n_keys in [0usize, 1, 2, 127, 128, 1000] {
            let keys = (0..n_keys)
                .map(|_| DiagnosisKey::new(TemporaryExposureKey::generate(&mut rng, start), 5))
                .collect();
            let export = TemporaryExposureKeyExport::new_de(
                u64::from(day) * 86_400,
                (u64::from(day) + 1) * 86_400,
                keys,
            );
            let signed = sign_export(&export, &backend_key, &SignatureInfo::default());
            assert_eq!(
                cdn.export_size_bytes(&mut rng, day, n_keys),
                signed.export_bin.len() + signed.export_sig.len() + 150,
                "day {day}, {n_keys} keys"
            );
        }
    }
}
