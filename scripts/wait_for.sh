#!/usr/bin/env bash
# wait_for.sh — bounded retry loop for CI smoke jobs.
#
# Usage:
#   scripts/wait_for.sh [--root DIR] [--timeout SECONDS] [--interval SECONDS] \
#       [--label TEXT] -- CMD [ARGS...]
#
# Re-runs CMD until it exits 0, sleeping --interval seconds between
# attempts, for at most --timeout seconds.  On success it prints the
# attempt count and exits 0.  On timeout it prints a diagnosis and — when
# --root was given — dumps the tail of that service root's event log via
# `repro events --tail`; when REPRO_GATEWAY_URL is set it also probes the
# gateway's /healthz so gateway-smoke failures are diagnosable from the
# log artifact alone.  Then exits 1.  This replaces unbounded
# `wait $PID` / ad-hoc `sleep` polling in the smoke jobs: a wedged fleet
# now fails the job in minutes with the event log attached instead of
# hanging until the runner is reaped.
set -euo pipefail

root=""
timeout=120
interval=1
label=""

usage() {
    sed -n '2,16p' "$0" >&2
    exit 2
}

while [ $# -gt 0 ]; do
    case "$1" in
        --root)
            root="${2:?--root needs a directory}"
            shift 2
            ;;
        --timeout)
            timeout="${2:?--timeout needs seconds}"
            shift 2
            ;;
        --interval)
            interval="${2:?--interval needs seconds}"
            shift 2
            ;;
        --label)
            label="${2:?--label needs text}"
            shift 2
            ;;
        --)
            shift
            break
            ;;
        *)
            echo "wait_for.sh: unknown option: $1" >&2
            usage
            ;;
    esac
done

if [ $# -eq 0 ]; then
    echo "wait_for.sh: no command given after --" >&2
    usage
fi

desc="${label:-$*}"
deadline=$((SECONDS + timeout))
attempts=0

while :; do
    attempts=$((attempts + 1))
    if "$@"; then
        echo "wait_for.sh: ok after ${attempts} attempt(s): ${desc}"
        exit 0
    fi
    if [ "$SECONDS" -ge "$deadline" ]; then
        break
    fi
    sleep "$interval"
done

echo "wait_for.sh: TIMEOUT after ${timeout}s (${attempts} attempts): ${desc}" >&2
if [ -n "$root" ]; then
    echo "wait_for.sh: last events under ${root}:" >&2
    repro events --root "$root" --tail 50 >&2 || true
    # The raw tail as well: the CLI reader can itself be the broken thing.
    log="$root/events/log.jsonl"
    if [ -f "$log" ]; then
        echo "wait_for.sh: == ${log} ==" >&2
        tail -n 20 "$log" >&2 || true
    fi
fi
if [ -n "${REPRO_GATEWAY_URL:-}" ]; then
    echo "wait_for.sh: gateway health at ${REPRO_GATEWAY_URL}/healthz:" >&2
    curl -fsS --max-time 5 "${REPRO_GATEWAY_URL}/healthz" >&2 \
        || echo "wait_for.sh: gateway health probe failed (gateway down or unreachable)" >&2
fi
exit 1
