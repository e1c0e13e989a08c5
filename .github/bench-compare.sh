#!/usr/bin/env bash
# Judges a change against its base commit on the repository benchmark.
# Runs `bash bench/run.sh --seconds 10` in both checkouts in alternating
# pairs, then prints `bench/run.sh -compare` over the pooled runs under
# the BENCHMARK.json bounds. Exits non-zero on any "regressed" row, on a
# head run whose final JSON line reads "correct":false, or when the head
# runs failed more ops than the base runs.
#
#   bash .github/bench-compare.sh BASE_DIR HEAD_DIR OUT_DIR [PAIRS]
#
# Pair i runs at seed i on both sides. Odd pairs run base first, even
# pairs head first, so a host that drifts during the job drifts both
# sides alike. Each checkout builds and runs its own bench/ code. OUT_DIR
# receives base.jsonl, head.jsonl, one log per run and compare.txt.
set -euo pipefail
if (($# < 3)); then
	echo "usage: $0 BASE_DIR HEAD_DIR OUT_DIR [PAIRS]" >&2
	exit 2
fi
base=$(cd "$1" && pwd)
head=$(cd "$2" && pwd)
mkdir -p "$3"
out=$(cd "$3" && pwd)
pairs=${4:-3}
rm -f "$out/base.jsonl" "$out/head.jsonl"

failed_base=0 failed_head=0 status=0
for ((seed = 1; seed <= pairs; seed++)); do
	order=(base head)
	if ((seed % 2 == 0)); then
		order=(head base)
	fi
	for side in "${order[@]}"; do
		dir=$base
		if [[ $side == head ]]; then
			dir=$head
		fi
		log="$out/$side-$seed.log"
		(cd "$dir" && bash bench/run.sh --seconds 10 --seed "$seed" -o "$out/$side.jsonl") | tee "$log"
		summary=$(tail -n 1 "$log")
		failed=$(jq -r .failed <<<"$summary")
		if [[ $side == base ]]; then
			failed_base=$((failed_base + failed))
		else
			failed_head=$((failed_head + failed))
			if [[ $(jq -r .correct <<<"$summary") != true ]]; then
				echo "head run at seed $seed is not correct: $summary" >&2
				status=1
			fi
		fi
	done
done

(cd "$head" && bash bench/run.sh -compare "$out/base.jsonl" "$out/head.jsonl") | tee "$out/compare.txt"
echo "failed ops: base $failed_base, head $failed_head" | tee -a "$out/compare.txt"
if grep -q ' regressed$' "$out/compare.txt"; then
	echo "a metric regressed past its BENCHMARK.json bound" >&2
	status=1
fi
if ((failed_head > failed_base)); then
	echo "head failed more ops than base" >&2
	status=1
fi
exit $status
