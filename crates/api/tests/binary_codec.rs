//! Property-based coverage for the protocol-v3 binary codec: encode→decode
//! identity over generated request and response bodies — every variant,
//! including `Explanation`-carrying translations and full `MetricsReport`s —
//! plus typed rejection of truncated and oversized frames.
//!
//! The generators deliberately reach the codec's awkward corners: empty and
//! unicode strings, `u64::MAX` bucket bounds (`+Inf`), negative-exponent
//! floats, nested optional structure, and multi-candidate responses.

use nlidb::{Explanation, JoinExplanation, TranslateError};
use proptest::prelude::*;
use templar_api::binary::{
    check_frame_len, decode_request_frame, decode_response_frame, encode_request_frame,
    encode_response_frame, peek_request_id, CodecError, MAX_FRAME_BYTES,
};
use templar_api::{
    ApiError, HistogramBucket, MetricsReport, RequestBody, RequestOverrides, ResponseBody,
    SlowQueryReport, SqlCandidate, StageLatencyReport, TranslateRequest, TranslateResponse,
};
use templar_core::{Keyword, KeywordMetadata, RequestTrace, SearchStats, StageSpan};

// ---------------------------------------------------------------------------
// Generators
// ---------------------------------------------------------------------------

/// A fraction in `[0, 1]` with a fixed denominator (round-trip equality is
/// bit-exact either way; the fraction just keeps generated scores plausible).
fn fraction() -> impl Strategy<Value = f64> {
    (0u64..10_001).prop_map(|n| n as f64 / 10_000.0)
}

fn tenant() -> impl Strategy<Value = String> {
    "[a-z][a-z0-9_]{0,11}"
}

fn keyword_pair() -> impl Strategy<Value = (Keyword, KeywordMetadata)> {
    (
        "[a-z ☃]{1,16}",
        prop_oneof![
            Just(KeywordMetadata::select()),
            Just(KeywordMetadata::filter()),
            Just(KeywordMetadata::from_clause()),
            Just(KeywordMetadata::select().with_group_by()),
        ],
    )
        .prop_map(|(text, meta)| (Keyword::new(text), meta))
}

fn overrides() -> impl Strategy<Value = RequestOverrides> {
    (
        proptest::option::of(fraction()),
        proptest::option::of(any::<bool>()),
        proptest::option::of(1usize..16),
    )
        .prop_map(|(lambda, use_log_joins, top_k)| RequestOverrides {
            lambda,
            use_log_joins,
            top_k,
        })
}

fn translate_request() -> impl Strategy<Value = TranslateRequest> {
    (
        tenant(),
        ".{0,40}",
        proptest::collection::vec(keyword_pair(), 0..5),
        overrides(),
        any::<bool>(),
        any::<bool>(),
    )
        .prop_map(
            |(tenant, nlq, keywords, overrides, trace, bypass_cache)| TranslateRequest {
                tenant,
                nlq,
                keywords,
                overrides,
                trace,
                bypass_cache,
            },
        )
}

fn request_body() -> impl Strategy<Value = RequestBody> {
    prop_oneof![
        translate_request().prop_map(RequestBody::Translate),
        (tenant(), ".{0,60}").prop_map(|(tenant, sql)| RequestBody::SubmitSql { tenant, sql }),
        (tenant(), ".{0,60}").prop_map(|(tenant, sql)| RequestBody::Feedback { tenant, sql }),
        tenant().prop_map(|tenant| RequestBody::Metrics { tenant }),
        tenant().prop_map(|tenant| RequestBody::SlowQueries { tenant }),
        proptest::option::of(tenant()).prop_map(|tenant| RequestBody::Prometheus { tenant }),
    ]
}

/// An internally consistent `Explanation`: component scores are generated,
/// the blended scores recomputed with the production arithmetic.
fn explanation() -> impl Strategy<Value = Explanation> {
    (
        fraction(),
        fraction(),
        fraction(),
        fraction(),
        0usize..6,
        (0usize..4, fraction(), any::<bool>()),
        any::<bool>(),
    )
        .prop_map(
            |(lambda, sigma, popularity, dice, pairs, (edges, weight, used_log), exhausted)| {
                let join = JoinExplanation {
                    edges,
                    total_weight: weight * edges as f64,
                    used_log_weights: used_log,
                    score: 0.0,
                };
                let join = JoinExplanation {
                    score: join.recompute_score(),
                    ..join
                };
                let mut e = Explanation {
                    lambda,
                    sigma_score: sigma,
                    log_popularity: popularity,
                    dice_cooccurrence: dice,
                    qfg_pairs: pairs,
                    qfg_score: if pairs == 0 { popularity } else { dice },
                    config_score: 0.0,
                    join,
                    final_score: 0.0,
                    search_budget_exhausted: exhausted,
                };
                e.config_score = e.recompute_config_score();
                e.final_score = e.recompute_final();
                e
            },
        )
}

fn candidate() -> impl Strategy<Value = SqlCandidate> {
    (".{1,50}", explanation()).prop_map(|(sql, explanation)| SqlCandidate {
        sql,
        score: explanation.final_score,
        explanation,
    })
}

fn search_stats() -> impl Strategy<Value = SearchStats> {
    (0u64..5_000, 0u64..5_000, 0u64..100, any::<bool>()).prop_map(
        |(scored, pruned, cutoffs, exhausted)| SearchStats {
            tuples_scored: scored,
            tuples_pruned: pruned,
            bound_cutoffs: cutoffs,
            budget_exhausted: exhausted,
        },
    )
}

fn request_trace() -> impl Strategy<Value = RequestTrace> {
    (
        0u64..10_000_000,
        proptest::collection::vec(
            ("[a-z_]{3,16}", 0u64..1_000_000, 0u64..40).prop_map(|(stage, nanos, calls)| {
                StageSpan {
                    stage,
                    nanos,
                    calls,
                }
            }),
            0..5,
        ),
        0u64..1_000_000,
        0u64..16,
    )
        .prop_map(
            |(total_nanos, stages, worker_nanos, workers)| RequestTrace {
                total_nanos,
                stages,
                search_worker_nanos: worker_nanos,
                search_workers: workers,
            },
        )
}

fn translate_response() -> impl Strategy<Value = TranslateResponse> {
    (
        tenant(),
        proptest::collection::vec(candidate(), 0..4),
        proptest::option::of((request_trace(), search_stats(), any::<bool>())),
    )
        .prop_map(|(tenant, candidates, trace)| TranslateResponse {
            tenant,
            candidates,
            trace: trace.map(|(breakdown, search, cache_hit)| templar_api::TraceReport {
                breakdown,
                search,
                cache_hit,
            }),
        })
}

fn buckets() -> impl Strategy<Value = Vec<HistogramBucket>> {
    proptest::collection::vec(0u64..1_000_000, 0..6).prop_map(|mut bounds| {
        bounds.sort_unstable();
        let mut cumulative = 0;
        let mut out: Vec<HistogramBucket> = bounds
            .into_iter()
            .map(|le_us| {
                cumulative += 1;
                HistogramBucket {
                    le_us,
                    count: cumulative,
                }
            })
            .collect();
        out.push(HistogramBucket {
            le_us: u64::MAX,
            count: cumulative,
        });
        out
    })
}

fn stage_latency() -> impl Strategy<Value = StageLatencyReport> {
    (
        "[a-z_]{3,16}",
        0u64..500,
        0u64..4_096,
        0u64..65_536,
        buckets(),
    )
        .prop_map(|(stage, count, p50, p99, buckets)| StageLatencyReport {
            stage,
            count,
            p50_us: p50,
            p99_us: p99.max(p50),
            mean_us: p50,
            sum_us: count * p50,
            buckets,
        })
}

/// A `MetricsReport` with every scalar field exercised: counters are drawn
/// from one stream and assigned round-robin, so no field is stuck at its
/// default and a field the codec drops cannot hide.
fn metrics_report() -> impl Strategy<Value = MetricsReport> {
    (
        proptest::collection::vec(0u64..1_000_000, 62..63),
        buckets(),
        proptest::collection::vec(stage_latency(), 0..3),
    )
        .prop_map(|(counters, translate_buckets, stage_latencies)| {
            let mut next = counters.into_iter();
            let mut n = move || next.next().expect("enough generated counters");
            MetricsReport {
                translations_served: n(),
                empty_translations: n(),
                search_tuples_scored: n(),
                search_tuples_pruned: n(),
                search_bound_cutoffs: n(),
                search_budget_exhausted: n(),
                translate_p50_us: n(),
                translate_p99_us: n(),
                translate_mean_us: n(),
                translate_sum_us: n(),
                translate_buckets,
                stage_latencies,
                ingest_submitted: n(),
                ingest_rejected: n(),
                ingest_applied: n(),
                ingest_parse_errors: n(),
                log_skipped_statements: n(),
                ingest_lag: n(),
                log_evictions: n(),
                snapshot_swaps: n(),
                feedback_accepted: n(),
                wal_appended: n(),
                wal_fsyncs: n(),
                wal_replayed: n(),
                wal_segments_gc: n(),
                wal_io_errors: n(),
                wal_last_errno: n(),
                health_state: n(),
                degraded_entries_total: n(),
                journal_retries_total: n(),
                journal_heals_total: n(),
                wal_truncated_bytes: n(),
                recovery_peak_batch_bytes: n(),
                snapshot_body_bytes: n(),
                admission_tenant_shed: n(),
                admission_global_shed: n(),
                wal_applied_seq: n(),
                join_cache_hits: n(),
                join_cache_misses: n(),
                join_cache_evictions: n(),
                join_cache_entries: n(),
                qfg_fragments: n(),
                qfg_edges: n(),
                qfg_queries: n(),
                qfg_interned_fragments: n(),
                qfg_csr_edges: n(),
                qfg_pending_deltas: n(),
                qfg_compactions: n(),
                qfg_delta_runs: n(),
                qfg_run_merges: n(),
                translation_cache_hits: n(),
                translation_cache_misses: n(),
                translation_cache_evictions: n(),
                translation_cache_invalidations: n(),
                translation_cache_entries: n(),
                word_memo_hits: n(),
                word_memo_misses: n(),
                phrase_memo_hits: n(),
                phrase_memo_misses: n(),
            }
        })
}

fn slow_query() -> impl Strategy<Value = SlowQueryReport> {
    (
        0u64..10_000,
        ".{0,40}",
        0u64..5_000_000,
        any::<bool>(),
        request_trace(),
        search_stats(),
        any::<bool>(),
    )
        .prop_map(
            |(seq, question, total_us, ok, trace, search, cache_hit)| SlowQueryReport {
                seq,
                question,
                total_us,
                ok,
                trace,
                search,
                cache_hit,
            },
        )
}

fn api_error() -> impl Strategy<Value = ApiError> {
    prop_oneof![
        tenant().prop_map(|tenant| ApiError::UnknownTenant { tenant }),
        ".{0,40}".prop_map(|reason| ApiError::InvalidRequest { reason }),
        (0u32..10, 0u32..10)
            .prop_map(|(expected, found)| ApiError::VersionMismatch { expected, found }),
        ".{0,40}".prop_map(|detail| ApiError::MalformedEnvelope { detail }),
        Just(ApiError::TranslationFailed {
            kind: TranslateError::NoKeywords,
        }),
        Just(ApiError::TranslationFailed {
            kind: TranslateError::NoJoinPath,
        }),
        Just(ApiError::Backpressure),
        Just(ApiError::ShuttingDown),
        ".{0,40}".prop_map(|detail| ApiError::SnapshotIo { detail }),
        ".{0,40}".prop_map(|detail| ApiError::Durability { detail }),
    ]
}

fn response_body() -> impl Strategy<Value = ResponseBody> {
    prop_oneof![
        translate_response().prop_map(ResponseBody::Translated),
        Just(ResponseBody::SqlAccepted),
        Just(ResponseBody::FeedbackAccepted),
        metrics_report().prop_map(|report| ResponseBody::Metrics(Box::new(report))),
        proptest::collection::vec(slow_query(), 0..3).prop_map(ResponseBody::SlowQueries),
        ".{0,200}".prop_map(ResponseBody::Prometheus),
    ]
}

fn outcome() -> impl Strategy<Value = Result<ResponseBody, ApiError>> {
    prop_oneof![response_body().prop_map(Ok), api_error().prop_map(Err),]
}

// ---------------------------------------------------------------------------
// Properties
// ---------------------------------------------------------------------------

proptest! {
    /// Every request body round-trips bit-exactly through a binary frame,
    /// with the correlation id preserved and peekable without a body decode.
    #[test]
    fn request_frames_round_trip(id in any::<u64>(), body in request_body()) {
        let frame = encode_request_frame(id, &body);
        let declared = u32::from_le_bytes(frame[..4].try_into().unwrap()) as usize;
        prop_assert_eq!(declared, frame.len() - 4, "length prefix must cover the payload");
        prop_assert_eq!(peek_request_id(&frame[4..]), Some(id));
        let (decoded_id, decoded) = decode_request_frame(&frame[4..]).unwrap();
        prop_assert_eq!(decoded_id, id);
        prop_assert_eq!(decoded.unwrap(), body);
    }

    /// Every response outcome — success bodies including boxed
    /// `MetricsReport`s and `Explanation`-bearing translations, and every
    /// common error — round-trips bit-exactly.
    #[test]
    fn response_frames_round_trip(id in any::<u64>(), outcome in outcome()) {
        let frame = encode_response_frame(id, &outcome);
        let declared = u32::from_le_bytes(frame[..4].try_into().unwrap()) as usize;
        prop_assert_eq!(declared, frame.len() - 4);
        let (decoded_id, decoded) = decode_response_frame(&frame[4..]).unwrap();
        prop_assert_eq!(decoded_id, id);
        prop_assert_eq!(decoded, outcome);
    }

    /// Chopping a valid frame anywhere yields a typed error — never a
    /// panic, never a silently-wrong decode.
    #[test]
    fn truncated_request_frames_fail_typed(body in request_body(), cut_seed in any::<u64>()) {
        let frame = encode_request_frame(1, &body);
        let payload = &frame[4..];
        let cut = (cut_seed as usize) % payload.len();
        match decode_request_frame(&payload[..cut]) {
            Err(CodecError::Runt { .. }) => prop_assert!(cut < 8),
            Ok((_, Err(CodecError::Truncated { .. })))
            | Ok((_, Err(CodecError::Malformed { .. }))) => prop_assert!(cut >= 8),
            other => prop_assert!(false, "cut {} must fail typed, got {:?}", cut, other),
        }
    }

    /// Same for response frames.
    #[test]
    fn truncated_response_frames_fail_typed(outcome in outcome(), cut_seed in any::<u64>()) {
        let frame = encode_response_frame(1, &outcome);
        let payload = &frame[4..];
        let cut = (cut_seed as usize) % payload.len();
        prop_assert!(
            decode_response_frame(&payload[..cut]).is_err(),
            "cut {} must be rejected", cut
        );
    }

    /// Any announced length above the cap is rejected before buffering.
    #[test]
    fn oversized_lengths_are_rejected(extra in 1usize..1_000_000) {
        prop_assert_eq!(
            check_frame_len(MAX_FRAME_BYTES + extra, MAX_FRAME_BYTES),
            Err(CodecError::Oversized { len: MAX_FRAME_BYTES + extra, max: MAX_FRAME_BYTES })
        );
    }

    /// Flipping the first body byte to an invalid tag is caught.
    #[test]
    fn corrupt_body_tags_fail_typed(body in request_body()) {
        let mut frame = encode_request_frame(1, &body);
        frame[12] = 0xEE; // first body byte: no such tag
        let (_, decoded) = decode_request_frame(&frame[4..]).unwrap();
        prop_assert!(matches!(decoded, Err(CodecError::Malformed { .. })));
    }
}

// ---------------------------------------------------------------------------
// Streaming-codec oracles
// ---------------------------------------------------------------------------
//
// The frames encode and decode bodies through the typed streaming path
// (`Serialize::encode` / `Deserialize::decode`).  It must write exactly the
// bytes of the `Value` path — `encode_value(&x.to_value())` — and give the
// same verdict as `T::from_value(&decode_value(b)?)` on any input: both
// fail, or both return equal values.

use serde::{Deserialize, Serialize, Value};
use std::fmt::Debug;

fn value_path_bytes<T: Serialize>(x: &T) -> Vec<u8> {
    let mut out = Vec::new();
    serde::encode_value(&x.to_value(), &mut out);
    out
}

fn streamed_bytes<T: Serialize>(x: &T) -> Vec<u8> {
    let mut out = Vec::new();
    x.encode(&mut out);
    out
}

/// Values compare by their bytes, so a damaged float that became NaN
/// still compares.
fn assert_same_verdict<T: Serialize + Deserialize + Debug>(bytes: &[u8], case: &str) {
    let streamed = serde::decode::<T>(bytes);
    let via_value = serde::decode_value(bytes).and_then(|v| T::from_value(&v));
    match (streamed, via_value) {
        (Ok(a), Ok(b)) => assert_eq!(
            value_path_bytes(&a),
            value_path_bytes(&b),
            "{case}: the decoders return different values"
        ),
        (Err(_), Err(_)) => {}
        (a, b) => panic!("{case}: streamed {a:?}, value path {b:?}"),
    }
}

/// Every truncation point of a valid encoding, and one random single-byte
/// change (a bit flip, then an arbitrary byte — often an unknown tag) at
/// every position.
fn assert_same_verdict_on_damage<T: Serialize + Deserialize + Debug>(bytes: &[u8], seed: u64) {
    let mut rng = TestRng::from_seed(seed);
    assert_same_verdict::<T>(bytes, "pristine");
    for cut in 0..bytes.len() {
        assert_same_verdict::<T>(&bytes[..cut], &format!("cut at {cut}"));
    }
    let mut damaged = bytes.to_vec();
    for pos in 0..bytes.len() {
        damaged[pos] ^= 1 << rng.below(8);
        assert_same_verdict::<T>(&damaged, &format!("bit flip at {pos}"));
        damaged[pos] = rng.next_u64() as u8;
        assert_same_verdict::<T>(&damaged, &format!("byte {} at {pos}", damaged[pos]));
        damaged[pos] = bytes[pos];
    }
}

/// Rebuild a value tree with `edit` applied to the node numbered `target`
/// in pre-order (`next` counts the nodes visited so far).
fn rewrite_node(value: &Value, target: usize, next: &mut usize, edit: Edit) -> Value {
    let index = *next;
    *next += 1;
    let rebuilt = match value {
        Value::Seq(items) => Value::Seq(
            items
                .iter()
                .map(|v| rewrite_node(v, target, next, edit))
                .collect(),
        ),
        Value::Map(entries) => Value::Map(
            entries
                .iter()
                .map(|(k, v)| (k.clone(), rewrite_node(v, target, next, edit)))
                .collect(),
        ),
        leaf => leaf.clone(),
    };
    if index == target {
        edit(rebuilt)
    } else {
        rebuilt
    }
}

fn node_count(value: &Value) -> usize {
    1 + match value {
        Value::Seq(items) => items.iter().map(node_count).sum(),
        Value::Map(entries) => entries.iter().map(|(_, v)| node_count(v)).sum(),
        _ => 0,
    }
}

type Edit = fn(Value) -> Value;

/// Tree rewrites the binary form can carry but the encoder never writes:
/// map keys reordered, unknown or duplicated (before and after the
/// original), sequences and tuples with an extra item, integers sent as
/// another number representation, and nesting past the depth bound.
const REWRITES: &[(&str, Edit)] = &[
    ("reordered keys", |v| match v {
        Value::Map(mut m) => {
            m.reverse();
            Value::Map(m)
        }
        other => other,
    }),
    ("unknown key", |v| match v {
        Value::Map(mut m) => {
            m.insert(
                m.len() / 2,
                ("zz_unknown".into(), Value::Seq(vec![Value::Null])),
            );
            Value::Map(m)
        }
        other => other,
    }),
    ("later duplicate key", |v| match v {
        Value::Map(mut m) if !m.is_empty() => {
            m.push((m[0].0.clone(), Value::Str("duplicate".into())));
            Value::Map(m)
        }
        other => other,
    }),
    ("earlier duplicate key", |v| match v {
        Value::Map(mut m) if !m.is_empty() => {
            m.insert(0, (m[0].0.clone(), Value::Null));
            Value::Map(m)
        }
        other => other,
    }),
    ("extra item", |v| match v {
        Value::Seq(mut items) => {
            items.push(Value::Bool(true));
            Value::Seq(items)
        }
        other => other,
    }),
    ("u64 as i64", |v| match v {
        Value::U64(n) if n <= i64::MAX as u64 => Value::I64(n as i64),
        other => other,
    }),
    ("i64 as u64", |v| match v {
        Value::I64(n) if n >= 0 => Value::U64(n as u64),
        other => other,
    }),
    ("integers as f64", |v| match v {
        Value::U64(n) => Value::F64(n as f64),
        Value::I64(n) => Value::F64(n as f64),
        other => other,
    }),
    ("negative integers", |v| match v {
        Value::U64(n) => Value::I64(-(n as i64 & 0xFFFF) - 1),
        other => other,
    }),
    ("whole floats as integers", |v| match v {
        Value::F64(x) if x.fract() == 0.0 && x.abs() < 1e15 => Value::U64(x.abs() as u64),
        other => other,
    }),
    ("strings nested past the depth bound", |v| match v {
        Value::Str(s) => {
            (0..serde::binary::MAX_DEPTH).fold(Value::Str(s), |inner, _| Value::Seq(vec![inner]))
        }
        other => other,
    }),
];

/// Each rewrite, applied to one node at a time (so an enclosing enum
/// wrapper stays intact and the rewritten node is actually read).
fn assert_same_verdict_on_rewrites<T: Serialize + Deserialize + Debug>(x: &T) {
    let tree = x.to_value();
    for (name, edit) in REWRITES {
        for target in 0..node_count(&tree) {
            let rewritten = rewrite_node(&tree, target, &mut 0, *edit);
            if rewritten == tree {
                continue;
            }
            let mut bytes = Vec::new();
            serde::encode_value(&rewritten, &mut bytes);
            assert_same_verdict::<T>(&bytes, &format!("{name} at node {target}"));
        }
    }
}

proptest! {
    /// Requests stream to exactly the `Value` path's bytes.
    #[test]
    fn streamed_requests_write_the_value_path_bytes(body in request_body()) {
        prop_assert_eq!(streamed_bytes(&body), value_path_bytes(&body));
    }

    /// So do responses and errors.
    #[test]
    fn streamed_responses_write_the_value_path_bytes(body in response_body(), err in api_error()) {
        prop_assert_eq!(streamed_bytes(&body), value_path_bytes(&body));
        prop_assert_eq!(streamed_bytes(&err), value_path_bytes(&err));
    }

    /// Truncated and byte-damaged requests get the same verdict from both
    /// decoders.
    #[test]
    fn streamed_request_decoding_matches_the_value_path_on_damage(
        body in request_body(),
        seed in any::<u64>(),
    ) {
        assert_same_verdict_on_damage::<RequestBody>(&streamed_bytes(&body), seed);
    }

    /// Same for responses and errors.
    #[test]
    fn streamed_response_decoding_matches_the_value_path_on_damage(
        body in response_body(),
        err in api_error(),
        seed in any::<u64>(),
    ) {
        assert_same_verdict_on_damage::<ResponseBody>(&streamed_bytes(&body), seed);
        assert_same_verdict_on_damage::<ApiError>(&streamed_bytes(&err), seed);
    }

    /// Valid binary the encoder never writes — reordered, unknown and
    /// duplicate keys, extra items, re-typed integers, over-deep nesting —
    /// gets the same verdict from both decoders.
    #[test]
    fn streamed_decoding_matches_the_value_path_on_rewritten_trees(
        body in request_body(),
        outcome in outcome(),
    ) {
        assert_same_verdict_on_rewrites(&body);
        match outcome {
            Ok(body) => assert_same_verdict_on_rewrites(&body),
            Err(err) => assert_same_verdict_on_rewrites(&err),
        }
    }
}
