"""Summary math of the qens benchmark.

Turns the raw record a qens_perf workload process prints (samples,
counters, output checks) into the benchmark's named metrics. Every rule
that decides a reported number lives here and is tested in
test_summary.py: the percentile rule, the failure accounting and the
per-layer shares.
"""

import math
import statistics

# A tail percentile is reported only when at least this many samples lie
# beyond it; otherwise it would be read off one or two outliers.
MIN_BEYOND = 10


class SummaryError(Exception):
    """The raw record cannot support a metric the benchmark must report."""


def nearest_rank(samples, p):
    """Nearest-rank percentile: the ceil(p * n)-th smallest sample.

    Returns (value, n, beyond), where beyond counts the samples strictly
    after the chosen rank.
    """
    n = len(samples)
    if n == 0:
        raise SummaryError("percentile of an empty sample set")
    if not 0.0 < p <= 1.0:
        raise SummaryError(f"percentile {p} outside (0, 1]")
    rank = max(1, math.ceil(p * n - 1e-9))
    return sorted(samples)[rank - 1], n, n - rank


def tail_percentile(samples, p):
    """The p-th percentile, refused when fewer than MIN_BEYOND samples lie
    beyond it."""
    value, n, beyond = nearest_rank(samples, p)
    if beyond < MIN_BEYOND:
        raise SummaryError(
            f"p{round(100 * p)} of {n} samples has {beyond} beyond it; "
            f"at least {MIN_BEYOND} are needed")
    return value


def windowed_tail(samples, p):
    """A wall-time tail percentile that one burst of host interference
    cannot set: the samples, in the order they were taken, are cut into
    the most equal consecutive windows that each still support the
    percentile, and the median of the windows' percentiles is reported.
    With too few samples for two windows it is tail_percentile itself."""
    window = math.ceil(MIN_BEYOND / (1.0 - p) - 1e-9)
    k = len(samples) // window
    if k < 2:
        return tail_percentile(samples, p)
    samples = list(samples)
    bounds = [round(i * len(samples) / k) for i in range(k + 1)]
    return median([tail_percentile(samples[a:b], p)
                   for a, b in zip(bounds, bounds[1:])])


def median(samples):
    if not samples:
        raise SummaryError("median of an empty sample set")
    return statistics.median(samples)


def mean(samples):
    if not samples:
        raise SummaryError("mean of an empty sample set")
    return math.fsum(samples) / len(samples)


def failed_frac(offered, skipped=0, shed=0, rejected=0, errors=0):
    """Share of offered requests that got no answer.

    Policy-skipped, shed, rejected and errored requests all count: a
    request that was shed or rejected missed every latency limit, however
    generous.
    """
    if offered <= 0:
        raise SummaryError("no request was offered")
    failed = skipped + shed + rejected + errors
    if failed > offered:
        raise SummaryError(f"{failed} failed of {offered} offered")
    return failed / offered


def shares(self_times, total):
    """Each layer's share of `total`, plus the unattributed remainder.

    `self_times` maps a share name to its summed self time; the result
    holds those shares and `fl.unattributed_share`, and sums to 1.
    """
    if total <= 0:
        raise SummaryError("shares of a non-positive total")
    out = {name: t / total for name, t in self_times.items()}
    out["fl.unattributed_share"] = 1.0 - math.fsum(out.values())
    return out


def paired_overhead(ratios):
    """The cost of a feature from paired on/off timings: the median of the
    per-pair on/off wall-time ratios, minus 1. A median of ratios rather
    than a ratio of sums, so that one slow phase of the host, landing in a
    single half of one pair, cannot set the sign."""
    return median(ratios) - 1.0


def _ms(seconds):
    return 1e3 * seconds


def end_to_end(raw):
    """The end-to-end metrics of one untraced run."""
    s, x = raw["scalars"], raw["samples"]
    det_answered = len(x["loss"])
    return {
        "setup_s": median(x["setup_s"]),
        "query_p50_ms": _ms(median(x["query_s"])),
        "query_p99_ms": _ms(windowed_tail(x["query_s"], 0.99)),
        "answered_frac": 1.0 - failed_frac(
            s["det_offered"], skipped=s["det_offered"] - det_answered),
        "answer_mse": mean(x["loss"]),
        "bytes_per_query": s["det_bytes"] / det_answered,
        "sim_s_per_query": mean(x["sim_s"]),
        "vt_p99_s": tail_percentile(x["vt_latency_s"], 0.99),
        "peak_rss_mb": s["peak_rss_mb"],
    }


def per_layer(raw):
    """The per-layer metrics of one traced run."""
    s, x = raw["scalars"], raw["samples"]
    get = s.get
    run_total = math.fsum(x["runquery_s"])
    total = {k: math.fsum(x[f"replay_{k}_s"])
             for k in ("eval", "decide", "rank", "assemble", "train",
                       "aggregate", "total")}
    answered = get("registry_answered", 0.0)
    vt_queue = x.get("vt_queue_s") or [0.0]
    metrics = {
        "clustering.kmeans_s": median(x["kmeans_s"]),
        "fl.setup_rest_s": median([a - b for a, b in
                                   zip(x["setup_s"], x["kmeans_s"])]),
        "eval.region_ms_p50": _ms(median(x["replay_eval_s"])),
        "eval.region_ms_p99": _ms(windowed_tail(x["replay_eval_s"], 0.99)),
        "eval.rows_per_query": mean(x["replay_test_rows"]),
        "selection.decide_ms_p50": _ms(median(x["replay_decide_s"])),
        "selection.nodes_scored_per_query": mean(x["replay_nodes_scored"]),
        "selection.rank_ms_p50": _ms(median(x["replay_rank_s"])),
        "selection.supporting_clusters_per_query":
            mean(x["replay_supporting_clusters"]),
        "fl.assemble_ms_p50": _ms(median(x["replay_assemble_s"])),
        "train.fit_ms_p50": _ms(median(x["replay_train_s"])),
        "train.fit_ms_p99": _ms(windowed_tail(x["replay_train_s"], 0.99)),
        "train.ns_per_sample":
            1e9 * total["train"] / math.fsum(x["replay_samples_seen"]),
        "train.samples_per_query": mean(x["replay_samples_seen"]),
        "fl.aggregate_ms_p50": _ms(median(x["replay_aggregate_s"])),
        "admission.vt_queue_s_p50": median(vt_queue),
        "admission.vt_queue_s_p99":
            tail_percentile(vt_queue, 0.99) if len(vt_queue) > 1 else 0.0,
        "admission.shed": get("shed", 0.0),
        "admission.rejected": get("rejected", 0.0),
        "admission.deadline_missed": get("deadline_missed", 0.0),
        "admission.offer_pop_us": s["admission_offer_pop_us"],
        "pool.busy_frac": s["busy_frac"],
        "pool.session_imbalance": s["session_imbalance"],
        "codec.bytes_down_per_query":
            get("wire_down_bytes", 0.0) / answered if answered else 0.0,
        "codec.bytes_up_per_query":
            get("wire_up_bytes", 0.0) / answered if answered else 0.0,
        "codec.encode_us": s["codec_encode_us"],
        "codec.decode_us": s["codec_decode_us"],
        "sim.messages_per_query": s["messages_per_query"],
        "dynamic.refreshes": get("refreshes", 0.0),
        "leader.profile_copies": get("profile_copies", 0.0),
        "obs.registry_overhead_frac": paired_overhead(x["registry_ratio"]),
        "trace.overhead_frac": total["total"] / run_total - 1.0,
    }
    metrics.update(shares({
        "train.share": total["train"],
        "eval.share": total["eval"],
        "selection.share": total["decide"] + total["rank"],
        "fl.assemble_share": total["assemble"],
        "fl.aggregate_share": total["aggregate"],
    }, run_total))
    return metrics
