#!/bin/sh
# Print the planner's certificate (`hj_embed plan`) for a fixed set of
# shapes: Gray, direct, search, product, sub-of-product and relabelled
# plans, the deep product chains, rank-1 to rank-4 meshes, products over
# relabelled table cores, non-default objectives, and shapes whose search
# the planner's cube bounds cut short (the factorization cut fires on
# 3x3x23, 5x9x13 and 6x6x10 under congestion, the extension cut on 17x19
# and 11x21), and chains whose outermost leaf is a congestion-3 search
# map or a relabelled table, whole and under partial boxes (5x5x10,
# 5x5x19, 9x5x10, 9x10x10). It then prints the many-to-one certificate
# (`hj_embed contract`: Corollary 5's contraction, whose Gray factor
# fills the cube exactly) for a few (cube, shape) pairs.
# Every line is deterministic, so the output is a golden of the plan
# strings and of every verify() report field printed.
#
#   tools/plan_certificates.sh build/examples/hj_embed \
#     | cmp - bench/golden/hj_plan_certificates.txt
set -eu
hj_embed=${1:?usage: tools/plan_certificates.sh <path to hj_embed>}
while read -r args; do
  echo "== plan $args"
  # shellcheck disable=SC2086  # word splitting is the point
  "$hj_embed" plan $args
done <<'SHAPES'
17
100
8 8
30 31
4 4 8
2 16 32
7 7 7
3 5
7 9
11 11
3 3 3
3 3 7
5 5 5
6 10
12 20
21 21
5 6 7
9 9 9
6 10 12
12 12 12
19 19
3 3 23
10 10 17
10 10 32
7 9 15
11 13 23
13 25 41
15 9 7
20 12
11 18 30
8 18 24
20 23 24
6 10 14
3 14 24
21 35
1 21 35
3 5 7 9
6 10 12 2
6 10 12 --objective=wirelength
17 31
5 9 13
2 31 31
27 27
6 6 10 --objective=congestion
17 19
11 21
5 5 10
5 5 19
9 5 10
9 10 10
SHAPES
while read -r args; do
  echo "== contract $args"
  # shellcheck disable=SC2086
  "$hj_embed" contract $args
done <<'CONTRACTS'
5 19 19
4 8 8
6 6 10 12
9 7 9 15
10 13 25 41
3 3 5
CONTRACTS
