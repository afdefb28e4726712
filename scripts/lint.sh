#!/usr/bin/env bash
# Repo lint gate: formatting and clippy, warnings denied.
#
# Usage: scripts/lint.sh
#
# Runs the same checks CI should run. Fails on the first violation.

set -euo pipefail

cd "$(dirname "$0")/.."

echo "== DESIGN.md section references =="
# Every "DESIGN.md §N" cited from a code comment must resolve to a real
# "## N." heading, so the design doc and the code can't drift apart.
for sec in $(grep -rhoE 'DESIGN\.md §[0-9]+' crates examples tests benches 2>/dev/null \
               | grep -oE '[0-9]+$' | sort -un); do
  grep -qE "^## ${sec}\." DESIGN.md \
    || { echo "lint.sh: code references DESIGN.md §${sec} but DESIGN.md has no '## ${sec}.' heading" >&2; exit 1; }
done

echo "== doc paths (files named in README/DESIGN/EXPERIMENTS exist) =="
# A script, a root-level JSON file (a backticked bare name), a crate source
# file or a bench target named in prose must exist, so a deleted file
# cannot live on in the docs.
stale_paths=0
for path in $(grep -ohE '(scripts/[A-Za-z0-9_.-]+\.sh|crates/[a-z_]+/[a-z]+/[A-Za-z0-9_]+\.rs|benches/[A-Za-z0-9_]+|`[A-Za-z0-9_.-]+\.json`)' \
                README.md DESIGN.md EXPERIMENTS.md | tr -d '`' | sort -u); do
  case "$path" in
    benches/*) file="crates/bench/$path.rs" ;;
    *) file="$path" ;;
  esac
  [ -e "$file" ] \
    || { echo "lint.sh: docs name '$path' but $file does not exist" >&2; stale_paths=1; }
done
[ "$stale_paths" -eq 0 ] || exit 1

echo "== deleted names stay deleted (one recovery machine, one frame type, one checksum, no series engine) =="
# The reliable transport has one recovery state machine (selective repeat)
# and one frame type (`FrameView`). The removed second protocol and the
# removed owned frame enum must not come back through code, comments or
# docs; CHANGES.md and ROADMAP.md (history) and crates/ledger (the
# benchmark, frozen) are exempt.
if grep -rnE 'Go-Back-N|GoBackN|\bGBN\b|RecoveryMode|TransportFrame' \
     --exclude-dir=ledger crates examples tests README.md DESIGN.md EXPERIMENTS.md; then
  echo "lint.sh: a deleted reliable-transport name is back (see above); the one protocol is selective repeat, the one frame type is FrameView" >&2
  exit 1
fi

# The wire checksum is CRC32C and nothing else: the FNV-1a pass it replaced
# (and the scalar twin kept beside it) must not come back. `lb::fnv1a`, the
# balancer's key hash, is a different function and stays.
if grep -rnE 'fnv1a_chunked|fnv1a_scalar|wire_checksum_scalar|FNV_OFFSET|FNV_PRIME' \
     --exclude-dir=ledger crates examples tests README.md DESIGN.md EXPERIMENTS.md; then
  echo "lint.sh: a deleted checksum name is back (see above); the one wire checksum is transport::wire_checksum (CRC32C)" >&2
  exit 1
fi

# The generic series engine is gone: SLO objectives read their own good
# and total counts (crates/telemetry/src/slo.rs) and nothing else keeps
# windowed history. Its types, its config and the telemetry crate's unused
# `serde` feature must not come back.
if grep -rnE 'SeriesEngine|SeriesConfig|SeriesSnapshot|WindowSummary|CounterStat|GaugeStat|with_series_config' \
     --exclude-dir=ledger crates examples tests README.md DESIGN.md EXPERIMENTS.md; then
  echo "lint.sh: a deleted series-engine name is back (see above); an SLO reads its own two numbers, nothing samples the whole registry" >&2
  exit 1
fi
if grep -rnF 'feature = "serde"' crates/telemetry; then
  echo "lint.sh: dagger-telemetry has no serde feature (nothing ever enabled it); the JSON exporter is hand-rolled" >&2
  exit 1
fi

echo "== one checksum (one seal path, one verify path, one caller of the CRC arms) =="
# `wire_checksum` picks the hardware or the table arm by platform; nothing
# else may call either (both are private to transport.rs), and the reliable
# transport reaches it from exactly two places: `seal` and the decoder.
checksum_body=$(awk '/^pub fn wire_checksum\(/{on=1} on{print} on&&/^}/{exit}' crates/nic/src/transport.rs)
transport_code=$(awk '/#\[cfg\(test\)\]/{exit} !/^[[:space:]]*\/\//' crates/nic/src/transport.rs)
for arm in crc32c_table crc32c_sse42; do
  if printf '%s\n' "$transport_code" | grep -nE "pub(\([a-z]+\))? (unsafe )?fn ${arm}\b"; then
    echo "lint.sh: CRC arm ${arm} is exported; only wire_checksum may call it" >&2
    exit 1
  fi
  inside=$(printf '%s\n' "$checksum_body" | grep -cE "\b${arm}\(" || true)
  named=$(printf '%s\n' "$transport_code" | grep -cE "\b${arm}\(" || true)
  { [ "$inside" -eq 1 ] && [ "$named" -eq 2 ]; } \
    || { echo "lint.sh: CRC arm ${arm} is called ${inside} times in wire_checksum and named ${named} times in transport.rs (want 1 call + its definition)" >&2; exit 1; }
done
seals=$(awk '/#\[cfg\(test\)\]/{exit} !/^[[:space:]]*\/\//' crates/nic/src/reliable.rs \
          | grep -cE '\bwire_checksum\(' || true)
[ "$seals" -eq 2 ] \
  || { echo "lint.sh: reliable.rs calls wire_checksum at ${seals} sites; one seal and one verify path" >&2; exit 1; }

echo "== fabric encapsulation (concrete backends stay behind the seam) =="
# Library code must depend on the Fabric/FabricPort traits only: naming the
# switch or a concrete wire couples the stack to one transport and breaks
# the backend-parameterized conformance suite's premise. The seam itself
# (crates/nic/src/fabric*.rs: switch, fault layer, wires), the re-export hub
# (crates/nic/src/lib.rs), comments, and unit-test modules (everything from
# the first #[cfg(test)]) are exempt; construction belongs to composition
# roots — tests, examples, and binaries.
fabric_violations=0
while IFS= read -r f; do
  case "$f" in
    crates/nic/src/fabric.rs|crates/nic/src/fabric_*.rs|crates/nic/src/lib.rs) continue ;;
  esac
  hits=$(awk '/#\[cfg\(test\)\]/{exit} !/^[[:space:]]*\/\//' "$f" \
           | grep -nE '\b(MemFabric|UdpFabric|MemWire|UdpWire|NodeTable|Switch<)' || true)
  if [ -n "$hits" ]; then
    echo "lint.sh: $f names a concrete fabric type; depend on the Fabric trait instead:" >&2
    echo "$hits" >&2
    fabric_violations=1
  fi
done < <(find crates -path '*/src/*.rs' -type f)
[ "$fabric_violations" -eq 0 ] || exit 1

echo "== one switch (Fabric and FabricPort are implemented once) =="
# The node table, attach/detach, routing and the receive half live in
# `Switch` (crates/nic/src/fabric.rs); a backend implements the narrow
# `Wire` seam beneath it, never the two public traits again. Unit-test
# modules may fake a port.
for seam in Fabric FabricPort; do
  impls=$(for f in crates/nic/src/*.rs; do
            awk '/#\[cfg\(test\)\]/{exit} !/^[[:space:]]*\/\//' "$f"
          done | grep -cE "^impl(<[^>]*>)? ${seam} for " || true)
  [ "$impls" -eq 1 ] \
    || { echo "lint.sh: ${impls} implementations of ${seam} in crates/nic/src; the switch is the only one — implement Wire instead" >&2; exit 1; }
done

echo "== one encapsulation (the UDP header is written in one place) =="
# Every datagram's 10-byte header is written by `UdpWire::carry`; a second
# site pushing the magic byte is a second send path.
pushes=$(awk '/#\[cfg\(test\)\]/{exit} !/^[[:space:]]*\/\//' crates/nic/src/fabric_udp.rs \
           | grep -E 'UDP_MAGIC' | grep -cvE 'const UDP_MAGIC|!= UDP_MAGIC' || true)
[ "$pushes" -eq 1 ] \
  || { echo "lint.sh: the UDP encapsulation magic is written at ${pushes} sites in fabric_udp.rs; Wire::carry is the one send path" >&2; exit 1; }

echo "== file-size ratchet (no nic source file over 800 lines before its tests) =="
# ROADMAP item 4's acceptance line, made mechanical: lines before a file's
# first #[cfg(test)] (the perf ledger's `rust_lines_non_test` rule).
# engine.rs is grandfathered at its size at PR 17 and may only shrink.
while IFS= read -r f; do
  lines=$(awk '/#\[cfg\(test\)\]/{exit} {n++} END{print n+0}' "$f")
  case "$f" in
    crates/nic/src/engine.rs) cap=1318 ;;
    *) cap=800 ;;
  esac
  [ "$lines" -le "$cap" ] \
    || { echo "lint.sh: $f has ${lines} lines before its test module (cap ${cap}); split it along a layer boundary" >&2; exit 1; }
done < <(find crates/nic/src -name '*.rs' -type f)

echo "== counter export (one collector walk, no per-name gauge lines) =="
# NIC counters are declared once with `counter_bank!` and exported by
# zipping a bank's prebuilt `GaugeNames` with its snapshot walk
# (crates/nic/src/bank.rs, DESIGN.md §10). A `set_gauge(&format!(..))`
# line anywhere else in the NIC is a counter spelled out by hand again —
# and a string formatted on every collection.
if grep -rnF 'set_gauge(&format!(' crates/nic/src --include='*.rs' | grep -v '^crates/nic/src/bank\.rs:'; then
  echo "lint.sh: per-name gauge export in crates/nic/src; declare the counter in a counter_bank! and export it through GaugeNames" >&2
  exit 1
fi

echo "== one back-off policy (no bare yield/sleep on the host or engine path) =="
# Every wait in the RPC runtime and in the engine's drivers goes through
# `SpinWait` / `HostWait` (crates/nic/src/wait.rs, drive.rs): step the
# engine, back off, nap once idle. A bare `yield_now()` never escalates — an
# idle server spun a core forever that way — and a bare `sleep(` hides a
# latency floor. Unit-test modules and comments are exempt.
backoff_violations=0
for f in crates/rpc/src/*.rs crates/nic/src/engine.rs crates/nic/src/nic.rs crates/nic/src/drive.rs; do
  hits=$(awk '/#\[cfg\(test\)\]/{exit} !/^[[:space:]]*\/\//' "$f" \
           | grep -nE 'yield_now\(\)|sleep\(' || true)
  if [ -n "$hits" ]; then
    echo "lint.sh: $f backs off by hand; use SpinWait/HostWait (crates/nic/src/wait.rs):" >&2
    echo "$hits" >&2
    backoff_violations=1
  fi
done
[ "$backoff_violations" -eq 0 ] || exit 1

echo "== one round sequence (EngineCore::step is the only caller of the rounds) =="
# The order the engine's rounds run in lives in `EngineCore::step` and
# nowhere else: each round is private to engine.rs and called exactly once
# outside its unit tests, so reordering rounds is one edit and every driver
# (host thread, engine thread, shutdown drain) runs the same tick.
for round in flush_pending flush_backlog ctrl_round tx_round rx_round inbox_round \
             release_stalled deliver_round reliable_tick; do
  if grep -nE "pub(\([a-z]+\))? fn ${round}\b" crates/nic/src/engine.rs; then
    echo "lint.sh: engine round ${round} is exported; only EngineCore::step may call it" >&2
    exit 1
  fi
  if grep -nE "\b${round}\(" crates/nic/src --include='*.rs' -r | grep -v '^crates/nic/src/engine\.rs:'; then
    echo "lint.sh: engine round ${round} is named outside engine.rs; drive the engine through EngineCore::step" >&2
    exit 1
  fi
  calls=$(awk '/#\[cfg\(test\)\]/{exit} !/^[[:space:]]*\/\//' crates/nic/src/engine.rs \
            | grep -cE "self\.${round}\(" || true)
  [ "$calls" -eq 1 ] \
    || { echo "lint.sh: engine round ${round} has ${calls} call sites in engine.rs; EngineCore::step must be the only one" >&2; exit 1; }
done

echo "== golden-frame coverage (every wire frame kind is byte-pinned) =="
# Every frame-kind constant the reliable transport defines must have a
# golden-frame test somewhere under tests/ carrying a literal
# "golden frame: <NAME>" marker: a new frame kind landing without one
# could drift the wire format with nothing pinning its bytes.
for kind in $(grep -hoE 'const FRAME_[A-Z_0-9]+: u8' crates/nic/src/reliable.rs \
                | awk '{print $2}' | tr -d ':'); do
  grep -rq "golden frame: ${kind}" tests/ \
    || { echo "lint.sh: frame kind ${kind} has no 'golden frame: ${kind}' marker in tests/ — add a golden-frame test pinning its byte layout" >&2; exit 1; }
done
# The connection-setup control frames cross process boundaries too.
for kind in $(grep -hoE 'const CTRL_[A-Z_0-9]+_FN: u16' crates/nic/src/connmgr.rs \
                | awk '{print $2}' | tr -d ':'); do
  grep -rq "golden frame: ${kind}" tests/ \
    || { echo "lint.sh: control frame ${kind} has no 'golden frame: ${kind}' marker in tests/ — add a golden-frame test pinning its byte layout" >&2; exit 1; }
done

echo "== cargo fmt =="
cargo fmt --all -- --check

echo "== cargo clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo doc (telemetry crate, warnings denied) =="
RUSTDOCFLAGS="-D warnings" cargo doc -p dagger-telemetry --no-deps --quiet

echo "== chaos smoke (seeded fault-injection suite) =="
RUST_SEED="${RUST_SEED:-1}" cargo test -q --test chaos

echo "== loom-style model checks (exhaustive interleavings) =="
RUSTFLAGS="--cfg loom" cargo test -q -p dagger-nic --test loom_models

echo "== multi-queue chaos smoke =="
RUST_SEED="${RUST_SEED:-1}" cargo test -q --test multi_queue

echo "lint OK"
