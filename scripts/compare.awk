# The summary of one workload's runs for `scripts/check.sh --compare`.
# Input lines: side (parent|change), seed, wall_s, setup_s, fail_share,
# digests; or side, seed, run-failed. Prints per metric the medians with
# quartiles (linear between order statistics), the pairs the change wins
# (a tie counts for neither side) and the median gap against the
# parent's interquartile range, then one verdict:
#   gain        the change wins at least 9 of 10 pairs and the median gap
#               exceeds the parent's IQR;
#   worse       the change's median is more than 0.25 worse;
#   unresolved  either side's IQR is wider than 0.25 of the parent's
#               median, and not every change run beats every parent run;
#   no change   otherwise.
# Then the digest and check tallies. Exits 1 on a failed run, a digest
# mismatch, a failed check or a worse metric.

function sort_values(a, n,    i, j, t) {
    for (i = 2; i <= n; i++) {
        t = a[i]
        for (j = i - 1; j >= 1 && a[j] > t; j--) a[j + 1] = a[j]
        a[j + 1] = t
    }
}

function quantile(a, n, q,    h, l) {
    h = (n - 1) * q + 1
    l = int(h)
    return l >= n ? a[n] : a[l] + (h - l) * (a[l + 1] - a[l])
}

$3 == "run-failed" { failed_runs++; next }

{
    value[$1, "wall_s", $2] = $3
    value[$1, "setup_s", $2] = $4
    if ($5 == "nan" || $5 + 0 > 0) failed_checks++
    digest[$1, $2] = $6
    seeds[$2] = 1
}

END {
    status = 0
    if (failed_runs > 0) {
        printf "   %d run(s) did not finish\n", failed_runs
        status = 1
    }
    split("wall_s setup_s", metrics, " ")
    for (m = 1; m <= 2; m++) {
        metric = metrics[m]
        n = 0
        wins = 0
        for (s in seeds) {
            if (!(("parent", metric, s) in value) || !(("change", metric, s) in value)) continue
            n++
            p[n] = value["parent", metric, s] + 0
            c[n] = value["change", metric, s] + 0
            if (c[n] < p[n]) wins++
        }
        if (n == 0) {
            printf "   %-8s no complete pair\n", metric
            status = 1
            continue
        }
        sort_values(p, n)
        sort_values(c, n)
        pm = quantile(p, n, 0.5)
        cm = quantile(c, n, 0.5)
        iqr = quantile(p, n, 0.75) - quantile(p, n, 0.25)
        worse = (cm - pm) / pm
        printf "   %-8s parent %.4f [%.4f-%.4f]  change %.4f [%.4f-%.4f]  %+.1f%%  ahead %d of %d  gap %.4f, parent IQR %.4f\n", \
            metric, pm, quantile(p, n, 0.25), quantile(p, n, 0.75), \
            cm, quantile(c, n, 0.25), quantile(c, n, 0.75), 100 * worse, wins, n, pm - cm, iqr
        spread = quantile(p, n, 0.75) - quantile(p, n, 0.25)
        if (quantile(c, n, 0.75) - quantile(c, n, 0.25) > spread)
            spread = quantile(c, n, 0.75) - quantile(c, n, 0.25)
        if (worse > 0.25) {
            verdict = "worse"
            status = 1
        } else if (wins >= 0.9 * n && pm - cm > iqr) {
            verdict = "gain"
        } else if (spread > 0.25 * pm && c[n] >= p[1]) {
            verdict = "unresolved"
        } else {
            verdict = "no change"
        }
        printf "   %-8s verdict: %s\n", metric, verdict
        delete p
        delete c
    }
    same = 0
    both = 0
    for (s in seeds) {
        if (!(("parent", s) in digest) || !(("change", s) in digest)) continue
        if (digest["parent", s] == "none" && digest["change", s] == "none") continue
        both++
        if (digest["parent", s] == digest["change", s]) same++
        else printf "   digest mismatch, seed %s: parent %s, change %s\n", s, digest["parent", s], digest["change", s]
    }
    if (both > 0) printf "   digests equal in %d of %d pairs", same, both
    else printf "   no digest printed"
    printf "; runs with a failed check: %d\n", failed_checks + 0
    if (same != both || failed_checks > 0) status = 1
    exit status
}
