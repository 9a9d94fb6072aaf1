#!/usr/bin/env python3
"""Gate on the bench_kernels datapoint (BENCH_kernels.json).

Always enforced:
  * cross-level outputs were bitwise identical while timing;
  * the sparse genotype MAC was bitwise identical to the dense MAC on the
    widened dosages, at every level;
  * 2-bit genotype packing shrank the payload by ~4x (>= 3.5x allows for
    the per-block ceil(n/4) rounding at small n).

Enforced only on a host that can time them honestly (optimized build, no
sanitizers) — skipped cleanly otherwise:
  * the scalar sparse replicate kernel (`row_sum`) is >= 1.4x faster than
    the scalar dense MAC on the same generator-like genotypes;
  * where AVX2 is present, the AVX2 `row_sum` is >= 1.5x faster than the
    scalar `row_sum`.

Reported, never gated: each level's per-SNP decode time (packed bytes to
`row_sum`'s row list, `decode_snp_seconds`) next to its whole sparse pass.

Usage: check_kernel_speedup.py <BENCH_kernels.json>
"""
import json
import sys

MIN_SIMD_SPEEDUP = 1.5
MIN_SPARSE_SPEEDUP = 1.4
MIN_PACK_RATIO = 3.5


def main() -> int:
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(sys.argv[1], encoding="utf-8") as f:
        data = json.load(f)

    failures = []

    if not data.get("bitwise_identical", False):
        failures.append("cross-level kernel outputs were not bitwise identical")
    if not data.get("sparse_bitwise_identical", False):
        failures.append("sparse MAC outputs were not bitwise identical to dense")

    ratio = data.get("pack", {}).get("ratio", 0.0)
    if ratio < MIN_PACK_RATIO:
        failures.append(
            f"genotype packing ratio {ratio:.2f}x < required {MIN_PACK_RATIO}x"
        )
    else:
        print(f"[kernel-smoke] packing ratio {ratio:.2f}x >= {MIN_PACK_RATIO}x")

    levels = data.get("levels", {})
    for name, level in levels.items():
        if "decode_snp_seconds" in level:
            decode_s = level["decode_snp_seconds"]
            sparse_s = level.get("sparse_snp_seconds", 0.0)
            print(
                f"[kernel-smoke] {name}: decode {decode_s:.3g} s of sparse "
                f"{sparse_s:.3g} s per SNP (information only)"
            )
    optimized = data.get("optimized", False)
    sanitized = data.get("sanitized", False)
    if not optimized or sanitized:
        print(
            "[kernel-smoke] non-timing build (optimized=%s sanitized=%s); "
            "speedup gates skipped" % (optimized, sanitized)
        )
    else:
        sparse = levels.get("scalar", {}).get("sparse_speedup", 0.0)
        if sparse < MIN_SPARSE_SPEEDUP:
            failures.append(
                f"scalar sparse-vs-dense MAC speedup {sparse:.2f}x < required "
                f"{MIN_SPARSE_SPEEDUP}x"
            )
        else:
            print(
                f"[kernel-smoke] scalar sparse-vs-dense MAC speedup "
                f"{sparse:.2f}x >= {MIN_SPARSE_SPEEDUP}x"
            )
        if "avx2" not in levels:
            print("[kernel-smoke] AVX2 unavailable on this host; SIMD gate skipped")
        else:
            speedup = levels["avx2"].get("row_sum_speedup", 0.0)
            if speedup < MIN_SIMD_SPEEDUP:
                failures.append(
                    f"AVX2 row_sum speedup {speedup:.2f}x < required "
                    f"{MIN_SIMD_SPEEDUP}x"
                )
            else:
                print(
                    f"[kernel-smoke] AVX2 row_sum speedup {speedup:.2f}x >= "
                    f"{MIN_SIMD_SPEEDUP}x"
                )

    for failure in failures:
        print(f"[kernel-smoke] FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
