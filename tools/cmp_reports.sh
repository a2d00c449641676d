#!/usr/bin/env bash
# Byte-compare the generated data and the CLI reports of a git revision
# with those of this checkout.
#
#   tools/cmp_reports.sh REF
#
# Checks out REF in a temporary git worktree, generates the input data
# with each tree's `src/` and `cmp`s the data files (every cell is
# written as repr(float), so equal files mean equal bits), writes the
# reports listed below with each tree's `src/` from this checkout's
# data, and `cmp`s every pair.  The reports hold
# classification metrics only, which a last-bit change in training
# seldom moves, so the full-precision files of the CI step "CLI file
# round trip" (trained models, exported embeddings) are compared too.
# Exits 0 when all are identical and 1 naming each file that differs.
# The worktree and the outputs are removed on exit.  A change that
# means to alter outputs fails here by design.  CI runs it against HEAD
# (equal configs give byte-identical outputs) and against a pull
# request's base commit.
set -euo pipefail

ref=${1:?usage: tools/cmp_reports.sh REF}
root=$(git rev-parse --show-toplevel)
work=$(mktemp -d)
cleanup() {
    git -C "$root" worktree remove --force "$work/ref" 2>/dev/null || true
    git -C "$root" worktree prune
    rm -rf "$work"
}
trap cleanup EXIT
git -C "$root" worktree add --quiet --detach "$work/ref" "$ref"
cd "$work"

cli() { python -m mvfed.cli "$@" >/dev/null; }

# The input data, written with the source tree $1 into the directory $2.
gen() {
    local PYTHONPATH="$1/src" out=$2
    export PYTHONPATH
    cli gen-data --out "$out/flat" --kind complementary
    cli gen-data --out "$out/seq" --kind sequences
    cli gen-data --out "$out/seqmix" --kind sequences --step-dims 6,6,4
}

# The reports, models and embeddings, written with the source tree $1
# into the directory $2.  In mv_local and local_seq_localmv every client
# trains as a federation of one; the mvl grid reports train and score 36
# candidates as one stack, and the hfed and mv_local grids run 36 and
# 108 small federations back to back.  hfed16's shards have 7 and 8 rows
# beside an 8-wide view, so its federation runs a dual-form block per
# row count beside the primal block; its trained model (mh16) is
# compared too, at full precision.  vfed's clients and the single-view
# baseline fit one 2-D problem at a time, each as a stack of one.  sfed
# runs its views' federations in lock-step; on seqmix the two 6-wide
# views share one padded stack beside the 4-wide view's own.  Every
# sequential mode runs on seq: local_seq_localmv and local_seq_hfed
# train each client's encoders alone, as one stack per view, and
# central_seq_hfed trains each view's encoder on the pooled sequences,
# a stack of one.
reports() {
    local PYTHONPATH="$1/src" out=$2
    export PYTHONPATH
    mkdir -p "$out"
    for mode in hfed mv_local; do
        cli report --data flat --mode $mode --clients 7 --rounds 2 --repeats 2 --out "$out/$mode"
    done
    for mode in sfed local_seq_localmv local_seq_hfed central_seq_hfed; do
        cli report --data seq --mode $mode --clients 3 --enc-rounds 2 --rounds 2 --repeats 2 --out "$out/$mode"
    done
    cli report --data seqmix --mode sfed --clients 3 --enc-rounds 2 --rounds 2 --repeats 2 --out "$out/sfed_mixed"
    cli report --data flat --mode mvl --grid --repeats 2 --out "$out/mvl_grid"
    cli report --data flat --mode pairwise --views 0,2 --grid --repeats 2 --out "$out/pairwise_grid"
    cli report --data flat --mode hfed --clients 16 --rounds 2 --repeats 2 --out "$out/hfed16"
    cli report --data flat --mode vfed --grid --repeats 2 --out "$out/vfed_grid"
    cli report --data flat --mode single_view --views 1 --repeats 2 --out "$out/single_view"
    for mode in hfed mv_local; do
        cli report --data flat --mode $mode --clients 3 --rounds 1 --max-local 3 --grid --repeats 1 --out "$out/${mode}_grid"
    done
    cli train --data flat --model-out "$out/model"
    cli train --data flat --mode single_view --views 1 --model-out "$out/m1"
    cli train --data flat --mode hfed --clients 7 --rounds 2 --model-out "$out/mh"
    cli train --data flat --mode hfed --clients 16 --rounds 2 --model-out "$out/mh16"
    cli export-embeddings --mode vfed --data flat --out "$out/emb.csv"
    cli export-embeddings --mode sfed --data seq --clients 2 --enc-rounds 2 --out "$out/seq_emb.csv"
}

gen "$root" .
gen "$work/ref" ref/data
reports "$root" head
reports "$work/ref" ref

status=0
differs() {
    echo "$1 differs from $ref" >&2
    status=1
}
for file in $(find flat seq seqmix -type f | sort); do
    cmp -s "$file" "ref/data/$file" || differs "$file"
done
for file in $(cd head && find . -type f | sort); do
    cmp -s "head/$file" "ref/$file" || differs "${file#./}"
done
[ $status -eq 0 ] && echo "every data, report, model and embedding file identical to $ref"
exit $status
