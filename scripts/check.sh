#!/usr/bin/env bash
# Configure, build, and run the full test suite.
#
#   scripts/check.sh          # plain RelWithDebInfo build in build/
#   scripts/check.sh --asan   # AddressSanitizer+UBSan build in build-asan/
#   scripts/check.sh --tsan   # ThreadSanitizer build in build-tsan/
#   scripts/check.sh --ubsan  # standalone UBSan build in build-ubsan/
#   scripts/check.sh --tidy   # clang-tidy over the compilation database
#   scripts/check.sh --lint-ast  # protocol_lint + epilint (AST rules when
#                                # libclang is available; lexical rule always)
#   scripts/check.sh --model  # build + exhaustive epicheck model runs
#   scripts/check.sh --bench-smoke  # build + one fast benchmark pass (JSON);
#                                   # fails if the E2 exchange grows >3x
#                                   # from N=1,024 to N=262,144
#   scripts/check.sh --fuzz-smoke   # short fuzz run of every decode target:
#                                   # libFuzzer+ASan/UBSan under clang,
#                                   # the deterministic mini fuzzer otherwise
#   scripts/check.sh --perfbench-smoke  # build perfbench from this checkout
#                                       # and run each workload for 5 s
#                                       # (its correctness gates, no
#                                       # performance threshold)
#
# Extra arguments after the mode are passed to ctest (e.g. -R server);
# after --model they are passed to every epicheck invocation, and after
# --bench-smoke to scripts/run_benchmarks.sh.
set -euo pipefail
cd "$(dirname "$0")/.."

mode="${1:-}"
case "$mode" in
  --asan)
    shift
    build_dir=build-asan
    cmake_flags=(-DEPIDEMIC_ASAN=ON)
    ;;
  --tsan)
    shift
    build_dir=build-tsan
    cmake_flags=(-DEPIDEMIC_TSAN=ON)
    ;;
  --ubsan)
    shift
    build_dir=build-ubsan
    cmake_flags=(-DEPIDEMIC_UBSAN=ON)
    ;;
  --tidy)
    shift
    if ! command -v clang-tidy > /dev/null 2>&1; then
      echo "error: clang-tidy not found on PATH." >&2
      echo "Install LLVM/clang tooling, or rely on the CI clang-tidy job." >&2
      exit 1
    fi
    build_dir=build-tidy
    # Configure only: clang-tidy needs compile_commands.json, not objects.
    cmake -B "$build_dir" -S . > /dev/null
    mapfile -t sources < <(find src tools -name '*.cc' | sort)
    echo "clang-tidy: checking ${#sources[@]} translation units"
    clang-tidy -p "$build_dir" --quiet "${sources[@]}" "$@"
    echo "clang-tidy: clean"
    exit 0
    ;;
  --lint-ast)
    shift
    build_dir=build
    # Configure only: epilint_ast.py reads build/compile_commands.json when
    # present so each TU is parsed with its real flags.
    cmake -B "$build_dir" -S . > /dev/null
    python3 tools/protocol_lint.py
    # The probe is informational here: without libclang the AST rules skip
    # with a diagnostic and only the lexical rule is enforced; the CI
    # lint-ast job pins libclang so the full set always runs there.
    python3 tools/epilint_ast.py --probe || true
    python3 tools/epilint_ast.py --build-dir "$build_dir" "$@"
    echo "lint-ast: clean"
    exit 0
    ;;
  --model)
    shift
    build_dir=build
    cmake -B "$build_dir" -S . > /dev/null
    cmake --build "$build_dir" -j"$(nproc)" --target epicheck epicheck_test
    # The reference configurations from DESIGN.md §9: every interleaving
    # of the action alphabet up to the stated depth, against the real
    # replica code. Every row runs the daemon's exchange and its wire-v3
    # segments (tags 17/18). Each row must explore exactly the counts of
    # EXPERIMENTS.md M1 ("states transitions deduplicated"); keep this
    # block and that table in step. Extra arguments change the
    # configuration, so with them the counts are printed, not compared.
    # Then the ctest leg replays the checked-in trace fixtures (seeded
    # defects must still reproduce, clean traces must still pass).
    model_rows=(
      "--nodes 2 --items 2 --depth 8|50091 196670 146580"
      "--nodes 3 --items 2 --depth 6|59111 249927 190817"
      "--nodes 2 --items 2 --depth 6 --shards 2|2669 10374 7706"
    )
    for row in "${model_rows[@]}"; do
      read -r -a config <<< "${row%%|*}"
      expected="${row##*|}"
      status=0
      out="$("$build_dir"/tools/epicheck "${config[@]}" "$@")" || status=$?
      echo "$out"
      if [[ $status -ne 0 ]]; then exit "$status"; fi
      got="$(awk -F': *' '/^states explored:/ {s = $2}
                          /^transitions checked:/ {t = $2}
                          /^deduplicated:/ {d = $2}
                          END {print s, t, d}' <<< "$out")"
      if [[ $# -eq 0 && "$got" != "$expected" ]]; then
        echo "error: epicheck ${config[*]} counted '$got'" \
             "(states transitions deduplicated); EXPERIMENTS.md M1" \
             "says '$expected'" >&2
        exit 1
      fi
    done
    if [[ $# -ne 0 ]]; then
      echo "model: counts not compared with EXPERIMENTS.md M1 (extra" \
           "epicheck arguments: $*)"
    fi
    ctest --test-dir "$build_dir" --output-on-failure -R epicheck
    exit 0
    ;;
  --bench-smoke)
    shift
    build_dir=build
    cmake -B "$build_dir" -S . > /dev/null
    cmake --build "$build_dir" -j"$(nproc)" --target \
        bench_propagation bench_message_size bench_sharded_parallel
    scripts/run_benchmarks.sh --json --smoke "$@"
    exit 0
    ;;
  --fuzz-smoke)
    shift
    # Give each decode target a short budget and fail on the first finding
    # (fuzz/ — DESIGN.md §13). With clang this is the real thing: one
    # coverage-guided libFuzzer binary per target under ASan+UBSan, seeded
    # from the checked-in corpora. Anywhere else (gcc-only containers) the
    # same harnesses run under the in-tree deterministic mini fuzzer, so
    # the mode never silently does nothing. Crashing inputs land in
    # fuzz-artifacts/ — minimize and check them into tests/testdata/fuzz/.
    seconds="${FUZZ_SMOKE_SECONDS:-60}"
    if command -v clang++ > /dev/null 2>&1; then
      build_dir=build-fuzz
      cmake -B "$build_dir" -S . -DCMAKE_C_COMPILER=clang \
          -DCMAKE_CXX_COMPILER=clang++ -DEPIDEMIC_FUZZ=ON \
          -DEPIDEMIC_ASAN=ON > /dev/null
      mkdir -p fuzz-artifacts
      for target in codec wire_segment_v3 vv_delta snapshot journal \
                    server_frame fixture; do
        cmake --build "$build_dir" -j"$(nproc)" --target "fuzz_$target"
        corpus="tests/testdata/fuzz/$target"
        mkdir -p "$corpus"
        "$build_dir/fuzz/fuzz_$target" -max_total_time="$seconds" \
            -artifact_prefix=fuzz-artifacts/ "$corpus" "$@"
      done
      echo "fuzz-smoke: ${seconds}s per target, no findings (libFuzzer)"
    else
      build_dir=build
      cmake -B "$build_dir" -S . > /dev/null
      cmake --build "$build_dir" -j"$(nproc)" --target fuzz_replay
      for target in codec wire_segment_v3 vv_delta snapshot journal \
                    fixture; do
        "$build_dir"/fuzz/fuzz_replay "$target" --fuzz --runs 5000 \
            tests/testdata/fuzz/"$target" "$@"
      done
      "$build_dir"/fuzz/fuzz_replay server_frame --fuzz --runs 500 \
          tests/testdata/fuzz/server_frame "$@"
      echo "fuzz-smoke: no findings (deterministic mini fuzzer; install" \
           "clang for coverage-guided runs)"
    fi
    exit 0
    ;;
  --perfbench-smoke)
    shift
    # The repo benchmark (perfbench/, BENCHMARK.json) compiles src/ by glob
    # and calls src/ symbols directly, so a change under src/ can break it
    # without touching any test. Build it from this checkout into
    # build-perfbench/ (leaving .bench_build/ alone) and run every workload
    # briefly: the run fails on a build error or a failed correctness gate,
    # never on a performance number.
    for workload in zipf-steady bulk-catchup quiescent; do
      CARGO_TARGET_DIR=build-perfbench python3 perfbench/run.py \
          --workload "$workload" --seed 1 --seconds 5 --trace 1
    done
    echo "perfbench-smoke: all workloads passed their gates"
    exit 0
    ;;
  --*)
    echo "error: unknown mode '$mode'" >&2
    echo "usage: scripts/check.sh [--asan|--tsan|--ubsan|--tidy|--lint-ast|--model|--bench-smoke|--fuzz-smoke|--perfbench-smoke] [ctest args]" >&2
    exit 2
    ;;
  *)
    build_dir=build
    cmake_flags=()
    ;;
esac

cmake -B "$build_dir" -S . "${cmake_flags[@]}"
cmake --build "$build_dir" -j"$(nproc)"
ctest --test-dir "$build_dir" --output-on-failure -j"$(nproc)" "$@"
