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

echo "== module map (every source file DESIGN.md §3 names exists) =="
# The module map of DESIGN.md §3 names files by their bare name; each one
# must exist somewhere under crates/, so a deleted or never-written module
# cannot live on in the map.
stale_modules=0
for file in $(awk '/^## 3\./{on=1; next} /^## [0-9]+\./{on=0} on' DESIGN.md \
                | grep -oE '\b[A-Za-z0-9_]+\.rs\b' | sort -u); do
  [ -n "$(find crates -name "$file" -not -path '*/target/*' -print -quit)" ] \
    || { echo "lint.sh: DESIGN.md §3 names '$file' but no such file exists under crates/" >&2; stale_modules=1; }
done
[ "$stale_modules" -eq 0 ] || exit 1

echo "== deleted names stay deleted (one recovery machine, one frame type, one checksum, no series engine, one record per SLO fact, no slot table, no hand-off rings, no queue remaps, no caller-less settings, one setup path) =="
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
# An SLO crossing is recorded once, on the flight recorder (`b` = the
# objective's declaration index); burn rate and budget live in their
# gauges and window counts in each diagnosis bundle. The tracker's own
# crossing log, its report types and the JSON `slo` section must not come
# back.
if grep -rnwE 'SloEvent|SloEventKind|SloReport|SloSnapshot|dropped_events' \
     --exclude-dir=ledger crates examples tests README.md DESIGN.md EXPERIMENTS.md; then
  echo "lint.sh: a retired SLO report name is back (see above); read the slo.<name>.* gauges and the flight recorder's slo_breach/slo_recover events" >&2
  exit 1
fi
if grep -rnF 'feature = "serde"' crates/telemetry; then
  echo "lint.sh: dagger-telemetry has no serde feature (nothing ever enabled it); the JSON exporter is hand-rolled" >&2
  exit 1
fi

# A received frame goes straight into its flow's RX ring in the step that
# receives it: the request buffer, its slot ids, the flow FIFOs, the
# batch-or-timeout scheduler, the per-flow staging record and the clamp of
# the batch size to the ring capacity (which existed only so a batch could
# form) are all gone. `reqbuf_backpressure`, the always-0 counter the perf
# ledger still reads, is not matched.
if grep -rnE 'RequestBuffer|FlowFifos|FlowScheduler|SlotId' \
     --exclude-dir=ledger crates examples tests README.md DESIGN.md EXPERIMENTS.md; then
  echo "lint.sh: a deleted RX-staging name is back (see above); steered frames go straight into their RX ring" >&2
  exit 1
fi
if grep -rnE 'RxStage|SCHED_TIMEOUT|deliver_round|reqbuf_slots|drain_ready|batch_limit' crates/nic/src; then
  echo "lint.sh: a deleted RX-staging name is back in crates/nic/src (see above); steered frames go straight into their RX ring" >&2
  exit 1
fi
# The auto-batching register went with RX batching; only the no-op
# `set_auto_batch` stays, because the perf ledger still calls it.
if grep -rnwE 'auto_batch' crates/nic/src crates/types/src; then
  echo "lint.sh: the auto_batch register is back (see above); nothing waits for a batch to form" >&2
  exit 1
fi
# A TX ring read takes what the ring holds: the batch-size and
# polling-threshold registers, the polling-mode window and the plain-data
# register snapshot are gone. `-w` keeps the no-op `set_batch_size` from
# matching `batch_size`; `\b` keeps a longer name ending in `window_frames`
# from matching.
if grep -rnE 'SoftConfigSnapshot|polling_threshold|direct_polling|\bwindow_frames' crates/nic/src crates/types/src \
   || grep -rnw 'batch_size' crates/nic/src crates/types/src; then
  echo "lint.sh: a retired batch-size or polling-mode name is back (see above); a TX ring read takes what the ring holds" >&2
  exit 1
fi
# The offload stage is armed by installing its spec: the `nic_serde`
# register, its getter and its engine reads are gone. The no-op
# `set_nic_serde` is not matched (`\b` keeps its `set_` prefix out).
if grep -rnE '\bnic_serde(\(\)|:)' crates/nic/src; then
  echo "lint.sh: the nic_serde register is back in crates/nic/src (see above); an installed offload spec arms the stage" >&2
  exit 1
fi
# The three no-op setters exist only for the frozen perf ledger; nothing
# else may call them. crates/sim is exempt: its `Batcher::set_batch_size`
# is the timing model's own batcher, not the register file's.
if grep -rnE '\bset_(batch_size|auto_batch|nic_serde)\(' --exclude-dir=ledger --exclude-dir=sim \
     crates examples tests src | grep -vE 'pub fn set_(batch_size|auto_batch|nic_serde)\('; then
  echo "lint.sh: a no-op register setter is called outside crates/ledger (see above); it sets nothing" >&2
  exit 1
fi

# A frame never changes worker after the fabric: senders route to the queue
# that owns a frame's flow and receivers steer within their own flows
# (DESIGN.md §13). The cross-worker hand-off rings, the NIC-wide arrival
# stamps and the hold stall valve that kept order across them are gone.
if grep -rnE 'xfer|flow_seq|HOLD_STALL' crates/nic/src; then
  echo "lint.sh: a cross-worker hand-off name is back in crates/nic/src (see above); route frames to their flow's owner instead" >&2
  exit 1
fi

# A connection's requests all go to one destination queue,
# `conn_route_tag(cid) % queue_count(dst)` (DESIGN.md §13). The elastic RSS
# controller, the active-queue mask register, the per-connection route
# pins and their flight events are gone, and so is the `remaps` counter.
if grep -rnE 'QueueBalancer|BalancerConfig|start_balancer|active_queue_mask|set_queue_mask|RoutePin|route_pins|pin_route|QueueShed|QueueRestore' \
     crates examples tests README.md DESIGN.md; then
  echo "lint.sh: a retired queue-remap name is back (see above); a connection's destination queue is a pure function of its id and the queue count" >&2
  exit 1
fi
if grep -rnw 'remaps' crates/nic/src; then
  echo "lint.sh: the remaps counter is back in crates/nic/src (see above); connections never change queue" >&2
  exit 1
fi

# Every setting has a caller: availability objectives (`SloKind`), per-link
# and mid-run fault plans, and hub-less flow endpoints are gone. An SLO is
# a latency objective, a fault plan is fabric-wide and fixed at build, and
# a flow endpoint always stamps into a telemetry hub.
if grep -rnE 'SloKind|SloSpec::availability|set_link_faults|FlowEndpoint::with_telemetry' \
     --exclude-dir=ledger crates examples tests README.md DESIGN.md; then
  echo "lint.sh: a retired setting is back (see above); every setting needs a caller outside its own unit tests" >&2
  exit 1
fi

# A message's frames are built in place (`fragment_into`, prefix-aware), so
# the prefixed copy builder `fragment_with_ctx` is gone; the frozen perf
# ledger is exempt.
if grep -rnw 'fragment_with_ctx' --exclude-dir=ledger crates examples tests README.md DESIGN.md EXPERIMENTS.md; then
  echo "lint.sh: fragment_with_ctx is back (see above); fragment the prefix and the payload in place with fragment_into" >&2
  exit 1
fi

# Host-side setup has one path per thing: a `HardConfig` is plain data
# (struct literal plus `validate`), flows are claimed in ascending order by
# `Nic::take_flow` (striped, so a fresh pool's client `i` lands on queue
# `i`), and the open-loop arrival process nothing drove is gone.
if grep -rnE 'HardConfigBuilder|HardConfig::builder|take_flow_on_queue|connect_per_queue|PoissonArrivals' \
     --exclude-dir=ledger crates examples tests README.md DESIGN.md; then
  echo "lint.sh: a retired setup path is back (see above); build a HardConfig as a struct literal and claim flows with take_flow" >&2
  exit 1
fi
# An open's acknowledgement is connection state: the Connection Manager
# holds it (`confirm` / `is_confirmed`). No second set may be threaded
# through the NIC or the engine again.
if grep -nE '\bconfirmed\s*:|^\s*confirmed,\s*$' crates/nic/src/nic.rs crates/nic/src/engine.rs; then
  echo "lint.sh: a confirmed-set field or parameter is back in nic.rs/engine.rs (see above); ask ConnectionManager::is_confirmed" >&2
  exit 1
fi

echo "== every stubbed crate is used (.cargo/config.toml, .depstubs/) =="
# The offline build patches each external crate to a stub in `.depstubs/`.
# A patch must name a crate some manifest depends on (`<name>.workspace =
# true`), and every stub directory must be patched, so an unused
# dependency cannot linger behind its stub.
patched=$(awk '/^\[patch\.crates-io\]/{on=1; next} /^\[/{on=0} on && /=/{print $1}' .cargo/config.toml)
for name in $patched; do
  grep -qE "^${name}\.workspace[[:space:]]*=[[:space:]]*true" Cargo.toml crates/*/Cargo.toml \
    || { echo "lint.sh: .cargo/config.toml patches '${name}' but no manifest depends on it; drop the patch, its stub and its workspace entry" >&2; exit 1; }
done
for dir in .depstubs/*/; do
  name=$(basename "$dir")
  printf '%s\n' "$patched" | grep -qx "$name" \
    || { echo "lint.sh: .depstubs/${name} is not patched in .cargo/config.toml; delete the stub or patch it" >&2; exit 1; }
done
# And a manifest declares only what its crate's Rust sources use, by path
# or by `use` (`dagger-nic` appears as `dagger_nic::` or `use dagger_nic`).
for manifest in Cargo.toml crates/*/Cargo.toml; do
  case "$manifest" in
    Cargo.toml) srcs="src tests examples" ;;
    *) srcs=$(dirname "$manifest") ;;
  esac
  for dep in $(awk '/^\[(dev-)?dependencies\]/{on=1; next} /^\[/{on=0} on && /=/{sub(/\.workspace$/, "", $1); print $1}' "$manifest"); do
    # shellcheck disable=SC2086
    grep -rqE --include='*.rs' "\b${dep//-/_}::|\buse ${dep//-/_}\b" $srcs \
      || { echo "lint.sh: ${manifest} depends on '${dep}' but no Rust source of that crate uses it; drop the dependency" >&2; exit 1; }
  done
done

echo "== the engine asks, the owning modules decide (offload, control, routing) =="
# Offload classification lives in offload.rs and control-frame handling in
# connmgr.rs; engine.rs ships the lines they hand back. Every frame the
# engine originates takes its queue from `EngineCore::route`: the one place
# outside the unit tests that asks the fabric for a queue count, and the
# one caller of `route_queue`.
if grep -nE '\b(CacheClass|field_range|ctrl_open_ack)\b' crates/nic/src/engine.rs; then
  echo "lint.sh: engine.rs decides offload or control itself (see above); call OffloadState::rx_request / connmgr::rx_control instead" >&2
  exit 1
fi
engine_code=$(awk '/#\[cfg\(test\)\]/{exit} !/^[[:space:]]*\/\//' crates/nic/src/engine.rs)
counts=$(printf '%s\n' "$engine_code" | grep -cF 'queue_count(' || true)
routes=$(printf '%s\n' "$engine_code" | grep -E '\broute_queue\(' | grep -cvF 'pub fn route_queue(' || true)
{ [ "$counts" -eq 1 ] && [ "$routes" -eq 1 ]; } \
  || { echo "lint.sh: engine.rs asks for a queue count at ${counts} sites and calls route_queue at ${routes} outside its tests; route every originated frame through EngineCore::route" >&2; exit 1; }
if grep -rnE '\broute_queue\(' crates/nic/src --include='*.rs' | grep -v '^crates/nic/src/engine\.rs:'; then
  echo "lint.sh: route_queue is called outside engine.rs in crates/nic/src; route through EngineCore::route" >&2
  exit 1
fi

echo "== the steering path does not allocate (lb.rs) =="
# The load balancer runs once per message lead: the first frame of a
# message in a datagram (the frames that continue it follow its flow), so
# on every single-frame request; its keys are hashed from the stack
# (`lb.rs::steering_a_multiframe_request_performs_zero_heap_allocations`).
# No allocating constructor may come back outside its unit tests.
lb_allocs=$(awk '/#\[cfg\(test\)\]/{exit} !/^[[:space:]]*\/\//' crates/nic/src/lb.rs \
              | grep -nE '\.concat\(\)|\.to_vec\(\)|\bvec!|\bformat!' || true)
if [ -n "$lb_allocs" ]; then
  echo "lint.sh: crates/nic/src/lb.rs allocates on the steering path; hash a stack array instead:" >&2
  echo "$lb_allocs" >&2
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
# The node table, attach/detach and the receive half live in
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

echo "== no fabric file steps an engine (a delivery only notes its queue) =="
# A frame is delivered under the fabric's locks: the node table's, and the
# fault layer's when it carries a held frame (`FaultLayer::forward`,
# `release_due`). An engine stepped there would send its own frames under
# them and deadlock on the fault lock. So a delivery inside a host step only
# notes the queue it filled (`drive::note_delivery`), and the host step
# steps it once its own slot is released (DESIGN.md §12). No fabric file,
# tests included, names a step.
if grep -nE '\b(try_step|host_step)\b|\.step\(' crates/nic/src/fabric*.rs; then
  echo "lint.sh: a fabric file steps an engine (see above); note the delivery and let the host step take the peer step" >&2
  exit 1
fi

echo "== one encapsulation (the UDP header is written in one place) =="
# Every datagram's 10-byte header is written by `UdpWire::carry`; a second
# site pushing the magic byte is a second send path.
pushes=$(awk '/#\[cfg\(test\)\]/{exit} !/^[[:space:]]*\/\//' crates/nic/src/fabric_udp.rs \
           | grep -E 'UDP_MAGIC' | grep -cvE 'const UDP_MAGIC|!= UDP_MAGIC' || true)
[ "$pushes" -eq 1 ] \
  || { echo "lint.sh: the UDP encapsulation magic is written at ${pushes} sites in fabric_udp.rs; Wire::carry is the one send path" >&2; exit 1; }

echo "== a host pushes a message in one batch (crates/rpc/src) =="
# A message's frames go into the TX ring with one `try_push_batch` call,
# which wakes the engine once (DESIGN.md §17); only a full ring makes the
# host loop. A per-line `try_push(` outside the unit tests wakes the engine
# once per line again.
push_violations=0
for f in crates/rpc/src/*.rs; do
  hits=$(awk '/#\[cfg\(test\)\]/{exit} !/^[[:space:]]*\/\//' "$f" | grep -nE '\btry_push\(' || true)
  if [ -n "$hits" ]; then
    echo "lint.sh: $f pushes frames one line at a time; push the message with try_push_batch:" >&2
    echo "$hits" >&2
    push_violations=1
  fi
done
[ "$push_violations" -eq 0 ] || exit 1

echo "== the host half builds frames in place and takes deadlines from the call (crates/rpc/src) =="
# A request, a response and a completion are fragmented straight into the
# TX ring's scratch frames and decoded in place (DESIGN.md §12, "the host
# half"): the copying builders `encode_response` and `fragment` (kept for
# the frozen perf ledger and the baselines) stay off the hot path. Unit-test
# modules and comments are exempt.
inplace_violations=0
for f in crates/rpc/src/client.rs crates/rpc/src/server.rs crates/rpc/src/endpoint.rs crates/rpc/src/completion.rs; do
  hits=$(awk '/#\[cfg\(test\)\]/{exit} !/^[[:space:]]*\/\//' "$f" \
           | grep -nE '\b(encode_response|fragment|fragment_with_ctx)\(' || true)
  if [ -n "$hits" ]; then
    echo "lint.sh: $f builds a message by copy on the hot path; use response_parts / TxRing::stage (fragment_into):" >&2
    echo "$hits" >&2
    inplace_violations=1
  fi
done
[ "$inplace_violations" -eq 0 ] || exit 1
# A wait's deadline is the call's, fixed at issue; `HostWait::idle_until`
# reads the clock when it backs off. The endpoint reads no clock itself.
clock_hits=$(awk '/#\[cfg\(test\)\]/{exit} !/^[[:space:]]*\/\//' crates/rpc/src/endpoint.rs \
               | grep -nF 'Instant::now()' || true)
if [ -n "$clock_hits" ]; then
  echo "lint.sh: crates/rpc/src/endpoint.rs reads the clock; waits get their deadline from the call:" >&2
  echo "$clock_hits" >&2
  exit 1
fi

echo "== file-size ratchet (no nic source file over 800 lines before its tests) =="
# ROADMAP item 4's acceptance line, made mechanical: lines before a file's
# first #[cfg(test)] (the perf ledger's `rust_lines_non_test` rule).
# engine.rs is grandfathered at its size once the offload decision and
# control handling moved out, the cross-worker hand-off, the RX staging
# and delivery round, the polling-mode window and the per-connection route
# pins were deleted, and may only shrink (it absorbed the message-at-a-time
# RX classification without growing, and lost the `nic_serde` reads and
# the NIC-wide confirmed set).
while IFS= read -r f; do
  lines=$(awk '/#\[cfg\(test\)\]/{exit} {n++} END{print n+0}' "$f")
  case "$f" in
    crates/nic/src/engine.rs) cap=833 ;;
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
for round in flush_pending ctrl_round tx_round rx_round reliable_tick; do
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
