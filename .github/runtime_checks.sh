#!/usr/bin/env bash
# Runtime checks of an installed pg-surf without the test extra: the
# `pg-surf` command, its exit codes and its outputs.  Every output goes to
# a fresh temporary directory (under $RUNNER_TEMP when set), never into
# the checkout, and the directory is removed on exit.
#
#   python -m pip install -e . && bash .github/runtime_checks.sh
set -euo pipefail

work=$(mktemp -d "${RUNNER_TEMP:-${TMPDIR:-/tmp}}/pg-surf-checks.XXXXXX")
trap 'rm -rf "$work"' EXIT
cd "$work"

# expect_exit CODE COMMAND...: COMMAND must exit with CODE
expect_exit() {
  local want=$1 code=0
  shift
  "$@" || code=$?
  if [ "$code" -ne "$want" ]; then
    echo "expected exit $want, got $code: $*" >&2
    exit 1
  fi
}

# the CLI imports no test dependency
python -c "import sys, pgsurf.cli; assert 'sympy' not in sys.modules"
# nor the table writer, which only `curvature` and `mesh` import
python -c "import sys, pgsurf.cli; assert 'pgsurf.render' not in sys.modules"
# and no `verify` or `probe` run loads numpy.random: their draws are the package's SplitMix64
python -W error -c "import os, sys; from pgsurf.cli import main; null = ['--set', 'output.json=' + os.devnull]; assert main(['verify', '--set', 'family.name=thm42', '--set', 'family.h0=0.5', '--set', 'grid.n1=9', '--set', 'grid.n2=9'] + null) == 0; assert main(['probe', '--set', 'budget=300'] + null) == 0; assert 'numpy.random' not in sys.modules"
# nor does `sample_params`: a seed gives one set of kwargs, and thm42's rates keep |lam| >= 0.25
python -W error -c "import sys, pgsurf; a = pgsurf.sample_params('thm42', 7, 'spacelike'); assert a == pgsurf.sample_params('thm42', 7, 'spacelike') and abs(a['lam1']) >= 0.25; assert 'numpy.random' not in sys.modules"
pg-surf curvature --set family.name=thm31 --set family.k0=1 --set grid.n1=3 --set grid.n2=3
pg-surf --help
expect_exit 2 pg-surf
# the family keys are read off the constructors' signatures: a fixture takes none
expect_exit 2 pg-surf curvature --set family.name=linear --set family.k0=1
# each command takes only its own output keys: another command's is unknown
expect_exit 2 pg-surf curvature --set family.name=thm31 --set family.k0=1 --set output.obj=x.obj
expect_exit 2 pg-surf verify --set family.name=thm31 --set family.k0=1 --set output.csv=x.csv
test ! -e x.obj; test ! -e x.csv
# two outputs of one command on one file: a config error, and nothing written
expect_exit 2 pg-surf curvature --set family.name=thm31 --set family.k0=1 --set output.csv=both.txt --set output.json=both.txt
test ! -e both.txt
# and only its own tolerances: `verify` checks no ODE, `reconstruct` no motion
expect_exit 2 pg-surf verify --set family.name=thm31 --set family.k0=1 --set tolerances.ode=1e-6
expect_exit 2 pg-surf reconstruct --set theorem=3.1 --set tolerances.motion=1e-8 --set output.json=r.json
test ! -e r.json
# and no top-level key it does not read: a misspelt one, another command's,
# another theorem's, or a step off the FD route
expect_exit 2 pg-surf verify --set family.name=thm31 --set family.k0=1 --set motion=20 --set output.json=motion.json
test ! -e motion.json
expect_exit 2 pg-surf curvature --set family.name=thm31 --set family.k0=1 --set motions=3 --set output.csv=motions.csv
test ! -e motions.csv
expect_exit 2 pg-surf reconstruct --set theorem=3.1 --set lam=0.7 --set output.json=lam.json
test ! -e lam.json
expect_exit 2 pg-surf curvature --set family.name=thm31 --set family.k0=1 --set fd_step=1e-3 --set output.csv=step.csv
test ! -e step.csv

# repeated `main` calls in one process write what a fresh process writes
python -c "from pgsurf.cli import main; a = ['verify', '--set', 'family.name=thm42', '--set', 'family.h0=0.5', '--set', 'grid.n1=9', '--set', 'grid.n2=9']; assert main(a + ['--set', 'motions=3', '--set', 'output.json=main1.json']) == 0; assert main(a + ['--set', 'output.json=main2.json']) == 0"
pg-surf verify --set family.name=thm42 --set family.h0=0.5 --set grid.n1=9 --set grid.n2=9 --set output.json=fresh.json
cmp main2.json fresh.json

# the probe rejects a zero budget and is deterministic
expect_exit 2 pg-surf probe --set budget=0
# a floor is checked at every k0: at k0 = 0 the flat seed reaches a residual of about 0
expect_exit 1 pg-surf probe --set k0=0 --set floor=0.05 --set budget=200 --set restarts=2 --set output.json=flat.json
python -c "import json; report = json.load(open('flat.json')); assert report['floor_passed'] is False, report"
pg-surf probe --set k0=1 --set budget=3000 --set output.json=probe1.json
pg-surf probe --set k0=1 --set budget=3000 --set output.json=probe2.json
test -s probe1.json; cmp probe1.json probe2.json
# a space of unequal degrees without rates: 3 + 1 and 0 + 1 coefficients
space=(--set exponential=false --set degree_f=3 --set degree_g=0 --set budget=600 --set restarts=3)
pg-surf probe "${space[@]}" --set output.json=space1.json
pg-surf probe "${space[@]}" --set output.json=space2.json
cmp space1.json space2.json
python -c "import json; theta = json.load(open('space1.json'))['best_theta']; assert len(theta) == 5, theta"

# verify on small and large grids, with many motions, and a bad perturbation
pg-surf verify --set family.name=thm42 --set family.h0=0.5 --set grid.n1=9 --set grid.n2=9
pg-surf verify --set family.name=thm42 --set family.h0=0.5 --set grid.n1=400 --set grid.n2=400
pg-surf verify --set family.name=thm42 --set family.h0=0.5 --set grid.n1=11 --set grid.n2=11 --set motions=10000
expect_exit 2 pg-surf verify --set family.name=thm31 --set family.k0=1 --set perturb.exponent_scale=1.01
# a grid whose closed denominator vanishes before the pipeline masks a point:
# the closed sweep's own mask names the locus
expect_exit 1 pg-surf verify --set family.name=thm31 --set family.k0=1 --set 'grid.u1=[-1,21]' --set output.json=locus.json
python -c "import json; error = json.load(open('locus.json'))['suites']['cross_check']['error']; assert error == 'grid crosses a lightlike or inadmissible locus', error"
# a point with no curvature is NaN on every path, the one-point views too;
# the package has no Lightlike* error class to report it
python -c "import math, pgsurf; from pgsurf.factorable import jet_component_arrays; from pgsurf.surface import gaussian_curvature; comp = jet_component_arrays(pgsurf.family_surface('saddle'), [1.0], [0.0]); assert math.isnan(gaussian_curvature(comp)); assert not [n for n in dir(pgsurf) if n.startswith('Lightlike')]"

# exports on every route, in one block and in several
pg-surf mesh --set family.name=saddle --set 'grid.u1=[0.5,1.5]' --set grid.n1=21 --set grid.n2=7 --set output.obj=saddle.obj --set output.sidecar=saddle.csv
test -s saddle.obj; test -s saddle.csv
# with no path, stdout carries the OBJ alone, the bytes of its file; the sidecar needs a path
pg-surf mesh --set family.name=saddle --set 'grid.u1=[0.5,1.5]' --set grid.n1=21 --set grid.n2=7 > stdout.obj
test "$(head -n 1 stdout.obj)" = "# pg-surf mesh 21x7"; test "$(grep -c '^vertex,' stdout.obj)" -eq 0
cmp stdout.obj saddle.obj
# the saddle is lightlike on the grid row u1 = 1: every vertex, and only the faces off that row
test "$(grep -c '^v ' saddle.obj)" -eq 147; test "$(grep -c '^f ' saddle.obj)" -eq 108
# csv_lines FILE N2: every line of a `curvature` CSV has 10 fields; an
# excluded one is its five leading fields and `,,,,,1`, an included one has
# its K, H, epsilon and W and ends in `,0`; one grid row of N2 points is
# excluded, and the line after it is included again
csv_lines() {
  awk -F, -v n2="$2" 'NR > 1 {
    if (NF != 10) bad = 1
    else if ($10 == "1") { if ($0 != $1 "," $2 "," $3 "," $4 "," $5 ",,,,,1") bad = 1; ex++ }
    else if ($10 != "0" || $6 == "" || $7 == "" || $8 == "" || $9 == "") bad = 1
    else if (last == "1") back++
    last = $10
  } END { exit bad || ex != n2 || back != 1 }' "$1"
}
# the saddle's grid row u1 = 1, the middle one of an odd n1, is lightlike
pg-surf curvature --set family.name=saddle --set 'grid.u1=[0.5,1.5]' --set grid.n1=21 --set grid.n2=7 --set output.csv=saddle-lines.csv
csv_lines saddle-lines.csv 7; test "$(wc -l < saddle-lines.csv)" -eq 148
pg-surf curvature --set family.name=thm42 --set family.h0=0.5 --set formulas=pipeline-fd --set output.csv=fd.csv --set output.json=fd.json
test -s fd.csv; test -s fd.json
pg-surf curvature --set family.name=thm42 --set family.h0=0.5 --set formulas=pipeline-fd --set grid.n1=400 --set grid.n2=400 --set output.csv=fd400.csv --set output.json=fd400.json
test -s fd400.csv; test -s fd400.json
pg-surf mesh --set family.name=thm42 --set family.h0=0.5 --set formulas=specialized --set grid.n1=400 --set grid.n2=400 --set output.obj=sp400.obj --set output.sidecar=sp400.csv
test -s sp400.obj; test -s sp400.csv
# faces_in_order FILE N1 N2: every cell's face line, in order, with its corners
# a a+n2 a+n2+1 a+1 for a = i*n2 + j + 1, by awk's arithmetic, not Python's
faces_in_order() {
  awk -v n1="$2" -v n2="$3" '$1 == "f" {
    k++; i = int((k - 1) / (n2 - 1)); j = (k - 1) % (n2 - 1); a = i * n2 + j + 1
    if (NF != 5 || $0 != "f " a " " (a + n2) " " (a + n2 + 1) " " (a + 1)) bad = 1
  } END { exit bad || k != (n1 - 1) * (n2 - 1) }' "$1"
}
# vertex numbers up to 160 000
faces_in_order sp400.obj 400 400

# the analytic jets add +0.0 to each product: the saddle's H on its row x = -1.5,
# where f * g'' is -1.5 * 0, prints 0, never -0 (other rows print -0 either way)
pg-surf curvature --set family.name=saddle --set 'grid.u1=[-1.5,1.5]' --set 'grid.u2=[-1.5,1.5]' --set grid.n1=7 --set grid.n2=7 --set output.csv=zero.csv --set output.json=zero.json
awk -F, '$1 == "-1.5" { n++; if ($7 != "0") bad = 1 } END { exit bad || n != 7 }' zero.csv

# as_formatted FILE: every cell of the CSV prints as format(float(cell), ".17g") prints it
as_formatted() {
  python -c "import sys; lines = open(sys.argv[1]).read().split('\n'); sys.stdout.write('\n'.join(lines[:1] + [','.join(c and format(float(c), '.17g') for c in line.split(',')) for line in lines[1:]]))" "$1" > "$1.formatted"
  cmp "$1" "$1.formatted"
}

# rows longer than a block of 2**15 points are swept and written in spans: every line whole;
# their per-cell columns (x, K, W) are rendered in chunks shorter than the spans
pg-surf curvature --set family.name=thm42 --set family.h0=0.5 --set formulas=pipeline --set grid.n1=2 --set grid.n2=50000 --set output.csv=long.csv --set output.json=long.json
awk -F, 'NF != 10 { bad = 1 } END { exit bad || NR != 100001 }' long.csv
as_formatted long.csv
pg-surf mesh --set family.name=thm42 --set family.h0=0.5 --set grid.n1=2 --set grid.n2=50000 --set output.obj=long.obj --set output.sidecar=long-mesh.csv
test "$(grep -c '^v ' long.obj)" -eq 100000; test "$(grep -c '^f ' long.obj)" -eq 49999
faces_in_order long.obj 2 50000
awk -F, 'NF != 6 { bad = 1 } END { exit bad || NR != 100001 }' long-mesh.csv
# the same in spans whose columns repeat their bit patterns, formatted once
# per pattern: the FD route's K, H and W of thm31, the closed H of thm42
long_rows() {
  local route=$1
  shift
  pg-surf curvature "$@" --set formulas="$route" --set grid.n1=2 --set grid.n2=50000 --set output.csv="long-$route.csv" --set output.json="long-$route.json"
  awk -F, 'NF != 10 { bad = 1 } END { exit bad || NR != 100001 }' "long-$route.csv"
  as_formatted "long-$route.csv"
  pg-surf mesh "$@" --set formulas="$route" --set grid.n1=2 --set grid.n2=50000 --set output.obj="long-$route.obj" --set output.sidecar="long-$route-mesh.csv"
  test "$(grep -c '^v ' "long-$route.obj")" -eq 100000
  awk -F, 'NF != 6 { bad = 1 } END { exit bad || NR != 100001 }' "long-$route-mesh.csv"
}
long_rows pipeline-fd --set family.name=thm31 --set family.k0=1
long_rows specialized --set family.name=thm42 --set family.h0=0.5

# the pipeline and closed routes print the same K and H text
pg-surf curvature --set family.name=thm42 --set family.h0=0.5 --set grid.n1=400 --set grid.n2=400 --set output.csv=pipe400.csv --set output.json=pipe400.json
pg-surf curvature --set family.name=thm42 --set family.h0=0.5 --set formulas=specialized --set grid.n1=400 --set grid.n2=400 --set output.csv=closed400.csv --set output.json=closed400.json
cmp <(cut -d, -f1-5,8-10 pipe400.csv) <(cut -d, -f1-5,8-10 closed400.csv)
# both routes take eps and W by one rule from D = q: the same epsilon,W columns
same_eps_w() {
  pg-surf curvature "$@" --set grid.n1=9 --set grid.n2=9 --set output.csv=ew-pipe.csv
  pg-surf curvature "$@" --set grid.n1=9 --set grid.n2=9 --set formulas=specialized --set output.csv=ew-closed.csv
  cmp <(cut -d, -f8,9 ew-pipe.csv) <(cut -d, -f8,9 ew-closed.csv)
}
same_eps_w --set family.name=thm42 --set family.h0=0.5
same_eps_w --set family.name=thm31 --set family.k0=2

# an all-excluded grid exits 3 and writes nothing; a straddling one keeps its excluded rows
expect_exit 3 pg-surf mesh --set family.name=exp_exp --set grid.n1=4 --set grid.n2=4 --set output.obj=empty.obj
test ! -e empty.obj
expect_exit 3 pg-surf curvature --set family.name=thm32 --set family.h0=1 --set family.causal=spacelike --set 'grid.u2=[-0.4,0.4]' --set output.csv=band.csv
test ! -e band.csv
pg-surf curvature --set family.name=thm32 --set family.h0=1 --set family.causal=spacelike --set 'grid.u2=[0,1]' --set output.csv=straddle.csv
grep -q ',1$' straddle.csv

# reconstruct each theorem; bad starts exit 4 (domain) and 2 (parameters)
pg-surf reconstruct --set theorem=3.1 --set h=1e-4 --set output.json=rec31.json
pg-surf reconstruct --set theorem=3.1 --set lam1=0.7 --set output.json=rec31lam.json
python -c "from pgsurf.reconstruct import reconstruct_thm31 as r31; r = r31(1.0, lam1=0.7, h=0.1); assert r.numeric[0] == r.closed[0], (r.numeric[0].hex(), r.closed[0].hex())"
# the library: `integrate` takes the ODE's own arguments, and a non-finite shift is named
python -c "import math, pgsurf; ts, ys = pgsurf.integrate(lambda s: -s, 0.0, [1.0, 0.0], 1.0, 1e-3, 2.0); assert ts.size == 1001 and abs(ys[-1, 0] - math.exp(-1)) < 1e-12
try: pgsurf.reconstruct_thm31(1.0, lam1=float('inf'))
except pgsurf.InvalidParams as e: assert str(e) == 'lam1 must be a finite real', e
else: raise AssertionError('lam1=inf accepted')"
pg-surf reconstruct --set theorem=3.2 --set causal=spacelike --set h=1e-4 --set output.json=rec32s.json
pg-surf reconstruct --set theorem=3.2 --set causal=timelike --set lam=1.5 --set h=1e-4 --set output.json=rec32t.json
pg-surf reconstruct --set theorem=3.2 --set causal=timelike --set lam=1.5 --set h=1e-4 --set output.json=rec32t2.json
cmp rec32t.json rec32t2.json
pg-surf reconstruct --set theorem=4.2 --set h=1e-4 --set output.json=rec42.json
pg-surf reconstruct --set theorem=3.2 --set causal=timelike --set u0=-1.2 --set h=1e-4 --set output.json=rec32u.json
expect_exit 4 pg-surf reconstruct --set theorem=3.2 --set causal=timelike --set u0=0.5
expect_exit 2 pg-surf reconstruct --set theorem=3.2 --set u0=0.5 --set lam=0.7
expect_exit 2 pg-surf reconstruct --set theorem=3.2 --set causal=null
# a saturated tanh profile is one value over the corridor: nothing to compare
expect_exit 2 pg-surf reconstruct --set theorem=3.1 --set lam1=40
# and so is 4.2's log g at h0 = 1e-16: one value over its 801 nodes, and nothing written
expect_exit 2 pg-surf reconstruct --set theorem=4.2 --set h0=1e-16 --set lam1=1e-5 --set lam2=2 --set output.json=flat42.json
test ! -e flat42.json
# at k0 = 1e-30 3.1's closed form moves by 2e-15, less than the ode tolerance:
# a trajectory resting at its seed would pass, so it exits 2 and writes nothing
expect_exit 2 pg-surf reconstruct --set theorem=3.1 --set k0=1e-30 --set output.json=flat31.json
test ! -e flat31.json
# a malformed corridor exits 2 before the radicand check can exit 4
expect_exit 2 pg-surf reconstruct --set theorem=4.2 --set length=-0.5
expect_exit 2 pg-surf reconstruct --set theorem=3.2 --set causal=timelike --set length=-0.5
test -s rec31.json; test -s rec31lam.json; test -s rec32s.json; test -s rec32t.json; test -s rec32u.json; test -s rec42.json

echo "runtime checks passed"
