#!/bin/sh
# End-to-end CLI test: run the supersim binary on the shipped config with
# command line overrides, write a transaction log, and analyze it with
# the ssparse binary using the paper's filter syntax.
set -e

SUPERSIM="$1"
SSPARSE="$2"
CONFIG="$3"
LOG="${TMPDIR:-/tmp}/supersim_cli_test_$$.csv"

# Listing 1 style invocation with overrides.
OUT=$("$SUPERSIM" "$CONFIG" \
    workload.message_log=string="$LOG" \
    workload.applications.0.num_samples=uint=50 \
    network.num_vcs=uint=4)
echo "$OUT" | grep -q "sampled messages:  800" || {
    echo "unexpected supersim output:"; echo "$OUT"; exit 1;
}

# ssparse with a filter keeps a subset.
PARSED=$("$SSPARSE" "$LOG" +app=0)
echo "$PARSED" | grep -q "messages: 800 of 800" || {
    echo "unexpected ssparse output:"; echo "$PARSED"; exit 1;
}
PARSED2=$("$SSPARSE" "$LOG" +src=0)
echo "$PARSED2" | grep -q "messages: 50 of 800" || {
    echo "unexpected filtered ssparse output:"; echo "$PARSED2"; exit 1;
}

# Observability-enabled run: time series + Chrome trace + JSON result.
SERIES="${TMPDIR:-/tmp}/supersim_cli_series_$$.csv"
TRACE="${TMPDIR:-/tmp}/supersim_cli_trace_$$.json"
RESULT="${TMPDIR:-/tmp}/supersim_cli_result_$$.json"
"$SUPERSIM" "$CONFIG" \
    observability.enabled=bool=true \
    observability.sample_interval=uint=500 \
    observability.series_file=string="$SERIES" \
    observability.trace_file=string="$TRACE" \
    --json="$RESULT" > /dev/null

head -n 1 "$SERIES" | grep -q "^tick,name,value$" || {
    echo "bad series header:"; head -n 1 "$SERIES"; exit 1;
}
NAMES=$(cut -d, -f2 "$SERIES" | tail -n +2 | sort -u | wc -l)
[ "$NAMES" -ge 3 ] || {
    echo "expected >= 3 instruments in series, got $NAMES"; exit 1;
}
head -c 1 "$TRACE" | grep -q '\[' || {
    echo "trace does not start with ["; exit 1;
}
tail -c 3 "$TRACE" | grep -q ']' || {
    echo "trace does not end with ]"; exit 1;
}
grep -q '"events_executed"' "$RESULT" || {
    echo "JSON result missing events_executed"; exit 1;
}

# ssparse autodetects series files and summarizes per instrument.
SOUT=$("$SSPARSE" "$SERIES" +name=engine)
echo "$SOUT" | grep -q "instruments:" || {
    echo "unexpected ssparse series output:"; echo "$SOUT"; exit 1;
}

# ssparse autodetects run results and prints one "name value" line per
# numeric leaf, counts exactly; result mode takes no filters.
ROUT=$("$SSPARSE" "$RESULT")
echo "$ROUT" | grep -q "^events_executed [0-9][0-9]*$" || {
    echo "unexpected ssparse result output:"; echo "$ROUT"; exit 1;
}
set +e
"$SSPARSE" "$RESULT" +app=0 2>/dev/null; CODE=$?
set -e
[ "$CODE" -eq 2 ] || {
    echo "ssparse result with a filter: expected exit 2, got $CODE"; exit 1;
}

# A power-enabled and a fault-enabled run: their report blocks reach
# ssparse as leaves without ssparse knowing their key names.
POWER="${TMPDIR:-/tmp}/supersim_cli_power_$$.json"
FAULT="${TMPDIR:-/tmp}/supersim_cli_fault_$$.json"
"$SUPERSIM" "$CONFIG" power.enabled=bool=true --json="$POWER" > /dev/null
"$SSPARSE" "$POWER" | grep -q "^energy\.joules_per_bit " || {
    echo "ssparse result missing energy.joules_per_bit"; exit 1;
}
"$SUPERSIM" "$CONFIG" fault.enabled=bool=true fault.random.count=uint=2 \
    fault.random.mtbf=float=2000 fault.random.mttr=float=500 \
    --json="$FAULT" > /dev/null
"$SSPARSE" "$FAULT" | grep -q "^fault\.recovered " || {
    echo "ssparse result missing fault.recovered"; exit 1;
}

# --version prints the build version and exits 0.
VOUT=$("$SUPERSIM" --version)
echo "$VOUT" | grep -q "^supersim [0-9]" || {
    echo "unexpected supersim --version output: $VOUT"; exit 1;
}
VOUT=$("$SSPARSE" --version)
echo "$VOUT" | grep -q "^ssparse [0-9]" || {
    echo "unexpected ssparse --version output: $VOUT"; exit 1;
}
# The JSON result embeds the same version (ties artifacts to the build).
grep -q '"version"' "$RESULT" || {
    echo "JSON result missing version"; exit 1;
}

# Configuration/usage errors exit 2 (permanent bad-spec, distinguishable
# from a crashed run) with a clear message on stderr.
BADCFG="${TMPDIR:-/tmp}/supersim_cli_bad_$$.json"
echo '{"unterminated": ' > "$BADCFG"
for CASE in "/nonexistent/config.json" "$BADCFG"; do
    set +e
    ERR=$("$SUPERSIM" "$CASE" 2>&1 >/dev/null)
    CODE=$?
    set -e
    [ "$CODE" -eq 2 ] || {
        echo "supersim $CASE: expected exit 2, got $CODE"; exit 1;
    }
    echo "$ERR" | grep -q "invalid configuration" || {
        echo "supersim $CASE: missing bad-config message:"; echo "$ERR";
        exit 1;
    }
done
set +e
"$SUPERSIM" 2>/dev/null; [ $? -eq 2 ] || {
    echo "supersim usage error should exit 2"; exit 1;
}
"$SSPARSE" /nonexistent/log.csv 2>/dev/null; CODE=$?
set -e
[ "$CODE" -eq 2 ] || {
    echo "ssparse missing input: expected exit 2, got $CODE"; exit 1;
}

rm -f "$LOG" "$SERIES" "$TRACE" "$RESULT" "$POWER" "$FAULT" "$BADCFG"
echo "cli test ok"
