#!/usr/bin/env bash
# Check that worker processes leave every bundled result alone, and that
# those results and the headline crossings still have their pinned digests.
#
# Usage: scripts/check_digests.sh OUTDIR
#
# Runs the package of this checkout (src/) from the repository root and
# writes every CSV into OUTDIR. Each sweep runs once with --threads 1 and
# once with --threads 2, and cmp checks that the two CSVs are equal: the
# 8-SNR MI/GMI sweep exercises the held draws on every row, the isi_rates
# benchmark sweep (printed by perfbench/workloads.py) runs BCJR on a
# worker, and the one-tap sweep stacks a row per distinct scheme, one of
# them listed twice. Then sha256sum checks the seven digests: every bundled
# result, the two sweeps' and the crossings that `pam6link gaps` prints. A
# change that moves a float must update them and say why.
#
# The digests rest on numpy's Philox normals, exp, log and log1p, whose
# last bits differ between numpy's AVX-512 and AVX2 kernels, so the script
# pins the X86_V3 (AVX2) dispatch level, as tests/pinned_dispatch.py pins
# it for the tier-1 pins; it needs an x86-64-v3 CPU. It opens with the
# Python and numpy versions and numpy's dispatched CPU features, so a
# mismatch after an upgrade or on another host shows its cause. An
# overflow or invalid value anywhere in these runs stops the script.
set -euo pipefail

if [ $# -ne 1 ]; then
    echo "usage: $0 OUTDIR" >&2
    exit 2
fi
mkdir -p "$1"
out=$(cd "$1" && pwd)
cd "$(dirname "$0")/.."

export PYTHONWARNINGS=error::RuntimeWarning
export NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR"
export PYTHONPATH="$PWD/src${PYTHONPATH:+:$PYTHONPATH}"

python3 -c 'import sys, numpy; print("python", sys.version.split()[0], "numpy", numpy.__version__)'
python3 -c 'import numpy; m = numpy._core._multiarray_umath; print("dispatch", [k for k in m.__cpu_dispatch__ if m.__cpu_features__[k]])'
python3 perfbench/workloads.py isi_rates 0 > "$out/isi.yaml"
cat > "$out/tap1.yaml" <<'EOF'
schemes: [cross_qam32, framed_cross_qam32, dm_pam6, cross_qam32]
metric: [symbol_metric, bit_metric]
snr_db: [20.0, 23.0]
seeds: [0, 3]
channel: {kind: fir_isi, taps: [0.9]}
num_symbols: 20000
EOF
for c in awgn_gaps loopback coded_ordering waterfall "$out/isi.yaml" "$out/tap1.yaml"; do
    n=$(basename "$c" .yaml)
    python3 -m pam6link.cli run --config "$c" --threads 1 --output "$out/${n}_t1.csv"
    python3 -m pam6link.cli run --config "$c" --threads 2 --output "$out/${n}_t2.csv"
    cmp "$out/${n}_t1.csv" "$out/${n}_t2.csv"
done
python3 -m pam6link.cli gaps --num-symbols 10000 --seed 11 > "$out/gaps.csv"
cd "$out"
sha256sum -c <<'EOF'
563076cef9f5fe5dc02773a7186c446d7e805d636db126b80ffaa51245ac5d51  awgn_gaps_t1.csv
2fcac1a921bf5a29fb7a2eb68d8906417451fbe33cab423dbd64fb5e20048e1b  loopback_t1.csv
3d7bf8572aa50884066e779821c7a6ddc242cebeb294bf4eeae656c8499caa91  coded_ordering_t1.csv
ba32f34f5a68cb78b0119b86c6ebd2c4342f9cd8dee051d9ab3bb11416a9b170  waterfall_t1.csv
08d11b7148c882c63b1879e6c1e4060865064f10be9d2c81a662db7356beb2b9  isi_t1.csv
ea9909da795c7ba961cd0e31bd121f11845615b50513b710c56309fd04013c03  tap1_t1.csv
7c737faa4ff5c97e61abfa0bd56254f4bbc44256de5206315f990766572d9036  gaps.csv
EOF
