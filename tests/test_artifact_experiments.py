"""The artifact-experiment contract, table-driven over the registry.

An experiment with a ``schema`` *is its document*: ``run`` returns the
complete JSON it records, and ``acceptance`` / ``format`` are pure
functions of that document.  Two halves, one row per sweep:

* **offline** — every committed ``BENCH_*.json`` validates against its
  schema, its gates re-evaluate to the committed ``acceptance`` block
  byte for byte, and it renders — no simulation;
* **pinned** — one smallest-possible ``usuite <sweep> --output`` run per
  sweep, whose stdout and artifact must equal the literals in
  :data:`PINNED`.  Those were captured by running the same argv at the
  commit *before* the seven sweeps stopped carrying a report class next
  to the document, so they pin every title, table, verdict line and
  artifact byte of the refactor (the ``tests/test_figures.py`` method).
  The scale, cache, faults and graph literals were re-captured when
  eventfd reads became non-blocking, because some of their cells had a
  worker block on a drained kick counter; only those cells moved.  The
  graph run's gate now passes: its deep clean cell's p99 had been
  inflated by requests parked behind such reads.  The graph run's
  ``sessions`` block and stdout line were re-captured again when the
  session cell began to run for ``queries / qps`` (here 83 ms) instead of
  a fixed 800 ms; nothing else in it moved.
"""

import json
from pathlib import Path

import pytest

from repro.experiments import autoscale_sweep, drift, registry
from repro.experiments.cli import main
from repro.experiments.schema import load_schema, validate

ROOT = Path(__file__).resolve().parents[1]

#: The commands that record an artifact, and those with a committed one.
ARTIFACT = [exp for exp in registry.EXPERIMENTS if exp.schema is not None]
COMMITTED = [exp for exp in ARTIFACT if exp.bench_path is not None]

#: The line of ``format(doc)`` that states the verdict.
VERDICT_LINE = {"faults": "of the inflation)"}


def _canon(obj) -> str:
    return json.dumps(obj, sort_keys=True)


def test_the_table_covers_every_artifact_command():
    assert {exp.name for exp in ARTIFACT} == set(PINNED) | {"figure-smoke"}
    assert {exp.name for exp in COMMITTED} == set(PINNED)


# -- offline: the committed artifacts ---------------------------------------

@pytest.mark.parametrize("experiment", COMMITTED, ids=lambda exp: exp.name)
def test_committed_artifact_rechecks_offline(experiment):
    path = ROOT / experiment.bench_path
    doc = json.loads(path.read_text())
    validate(doc, load_schema(experiment.schema))
    assert _canon(experiment.acceptance(doc)) == _canon(doc["acceptance"])
    assert doc["acceptance"]["pass"] is True
    assert VERDICT_LINE.get(experiment.name, "bit-identical") in experiment.format(doc)
    # The drift gate's offline half says the same, by name.
    assert drift.check_gates(path) == (True, f"{path}: gates ok")


def test_drift_gate_names_a_moved_gate_constant(monkeypatch):
    # A gate constant changed without re-recording: the pinned cell still
    # reproduces, the offline re-evaluation does not.
    monkeypatch.setattr(autoscale_sweep, "RECOVERY_GATE", 0.99)
    path = ROOT / autoscale_sweep.EXPERIMENT.bench_path
    assert drift.check_gates(path) == (
        False, f"{path}: GATES DIFFER: pass, recovery_gate",
    )


def test_drift_gate_names_a_hand_edited_artifact(tmp_path):
    doc = json.loads((ROOT / "BENCH_scale.json").read_text())
    doc["cells"][0]["saturation_qps"] *= 3
    edited = tmp_path / "BENCH_scale.json"
    edited.write_text(json.dumps(doc))
    ok, detail = drift.check_gates(edited)
    assert not ok and "GATES DIFFER" in detail and "speedup_at_2_replicas" in detail
    del doc["seed"]
    edited.write_text(json.dumps(doc))
    ok, detail = drift.check_gates(edited)
    assert not ok and "SCHEMA" in detail and "'seed'" in detail


# -- pinned: one tiny run per sweep, byte for byte --------------------------

@pytest.mark.parametrize("name", [exp.name for exp in COMMITTED])
def test_cli_run_is_pinned(name, tmp_path, monkeypatch, capsys):
    argv, exit_code, stdout, artifact = PINNED[name]
    experiment = registry.BY_NAME[name]
    monkeypatch.chdir(tmp_path)
    assert main(argv.split() + ["--output", "out.json"]) == exit_code
    out = capsys.readouterr().out
    assert out == stdout
    doc = json.loads((tmp_path / "out.json").read_text())
    validate(doc, load_schema(experiment.schema))
    assert _canon(doc) == artifact
    # Pure functions of the document: the reloaded artifact re-gates to
    # its own block and re-renders to what the run printed.
    assert _canon(experiment.acceptance(doc)) == _canon(doc["acceptance"])
    assert experiment.format(doc) + "\n" in out


#: command -> (argv, exit code, stdout at the parent commit, canonical JSON of
#: the artifact at the parent commit).
PINNED = {
    'scale': (
        'scale --scale unit --replicas 1 2 --policies round-robin --loads 800 --duration-us 120000',
        1,
        """\
Scale-out sweep — hdsearch
saturation vs replicas (round-robin):
replicas  saturation QPS
--------  --------------
       1           7,293
       2          20,100

tail latency per cell:
replicas       policy  QPS  done  p50 us  p99 us  imbalance
--------  -----------  ---  ----  ------  ------  ---------
       1       direct  800    87     445     624          -
       2  round-robin  800    87     497     665       1.00

reproducibility (2 replicas, round-robin @ 800 QPS): bit-identical

recorded out.json (acceptance: FAIL)
""",
        '{"acceptance": {"bit_reproducible": true, "p2c_beats_round_robin": false, "p'
        '2c_p99_us": 0.0, "pass": false, "round_robin_p99_us": 665.0, "saturation_mon'
        'otone": true, "speedup_at_2_replicas": 2.756, "target_speedup_at_2_replicas"'
        ': 1.7}, "benchmark": "mid-tier scale-out on hdsearch, scale=unit (midtier_co'
        'res=1, leaf target=80us), seed=0", "cells": [{"loads": [{"completed": 87, "l'
        'b_backlogged": 0, "mean_us": 447.58198519025217, "p50_us": 444.9742470751516'
        '5, "p99_us": 623.9554172458639, "per_replica_forwarded": [], "per_replica_ru'
        'nqlat_p99_us": [118.4859916761706], "qps": 800.0, "replica_imbalance": 0.0, '
        '"sent": 87}], "policy": "direct", "replicas": 1, "saturation_qps": 7293.3333'
        '33333334}, {"loads": [{"completed": 87, "lb_backlogged": 0, "mean_us": 497.4'
        '5638924288687, "p50_us": 496.63695299311075, "p99_us": 664.9915733871184, "p'
        'er_replica_forwarded": [126, 125], "per_replica_runqlat_p99_us": [88.8998464'
        '2119383, 87.27945354848339], "qps": 800.0, "replica_imbalance": 1.0039840637'
        '4502, "sent": 87}], "policy": "round-robin", "replicas": 2, "saturation_qps"'
        ': 20100.0}], "duration_us": 120000.0, "reproducibility": {"bit_identical": t'
        'rue, "first": {"completed": 87, "lb_backlogged": 0, "mean_us": 497.456389242'
        '88687, "p50_us": 496.63695299311075, "p99_us": 664.9915733871184, "per_repli'
        'ca_forwarded": [126, 125], "per_replica_runqlat_p99_us": [88.89984642119383,'
        ' 87.27945354848339], "qps": 800.0, "replica_imbalance": 1.00398406374502, "s'
        'ent": 87}, "policy": "round-robin", "qps": 800.0, "replicas": 2, "second": {'
        '"completed": 87, "lb_backlogged": 0, "mean_us": 497.45638924288687, "p50_us"'
        ': 496.63695299311075, "p99_us": 664.9915733871184, "per_replica_forwarded": '
        '[126, 125], "per_replica_runqlat_p99_us": [88.89984642119383, 87.27945354848'
        '339], "qps": 800.0, "replica_imbalance": 1.00398406374502, "sent": 87}}, "sc'
        'ale": "unit", "scale_overrides": {"midtier_cores": 1, "target_leaf_service_u'
        's": 80.0}, "seed": 0, "service": "hdsearch"}',
    ),
    'cache': (
        'cache --scale unit --services hdsearch --loads 1000 2500 --duration-us 150000 --no-axes',
        0,
        """\
Batching x caching sweep
batching x caching cells:
 service  batch  capacity   QPS  saturation  p50 us  p99 us  futex/q  hit rate  occupancy
--------  -----  --------  ----  ----------  ------  ------  -------  --------  ---------
hdsearch      -         -  1000       6,463     802    1056      9.1         -          -
hdsearch      -         -  2500       6,463     739    1134      7.2         -          -
hdsearch      8      4096  1000      24,880     849    1316      7.4      0.29        1.1
hdsearch      8      4096  2500      24,880     154     237      2.6      1.00        0.0

reproducibility (hdsearch, batch=8, capacity=4096 @ 2500 QPS): bit-identical

recorded out.json (acceptance: pass)
""",
        '{"acceptance": {"acceptance_qps": 2500.0, "bit_reproducible": true, "futex_s'
        'trictly_lower_everywhere": true, "headline_win": true, "hit_rate_positive_ev'
        'erywhere": true, "pass": true, "per_service": {"hdsearch": {"futex_off_per_q'
        'uery": 7.19, "futex_on_per_query": 2.65, "futex_strictly_lower": true, "hit_'
        'rate": 1.0, "p99_off_us": 1133.5, "p99_on_us": 237.5, "p99_reduction": 0.791'
        ', "saturation_gain": 3.849, "saturation_off_qps": 6463.3, "saturation_on_qps'
        '": 24880.0}}, "target_p99_reduction": 0.25, "target_saturation_gain": 1.3}, '
        '"benchmark": "leaf-request batching + mid-tier result cache, scale=unit (bat'
        'ch=8, capacity=4096 lru), seed=0", "cells": [{"batch_max": 0, "cache_capacit'
        'y": 0, "loads": [{"batch": {}, "cache": {}, "completed": 134, "epoll_per_que'
        'ry": 4.455223880597015, "futex_per_query": 9.149253731343284, "mean_us": 793'
        '.0487860926085, "p50_us": 801.9250436730508, "p99_us": 1055.5984440185593, "'
        'qps": 1000.0, "sendmsg_per_query": 3.0223880597014925, "sent": 135}, {"batch'
        '": {}, "cache": {}, "completed": 391, "epoll_per_query": 4.171355498721228, '
        '"futex_per_query": 7.194373401534527, "mean_us": 755.6539820716293, "p50_us"'
        ': 739.4352173785737, "p99_us": 1133.5036392413576, "qps": 2500.0, "sendmsg_p'
        'er_query": 2.9948849104859336, "sent": 390}], "saturation_qps": 6463.3333333'
        '33334, "service": "hdsearch"}, {"batch_max": 8, "cache_capacity": 4096, "loa'
        'ds": [{"batch": {"batches_sent": 169.0, "mean_occupancy": 1.136094674556213,'
        ' "occupancy_p99": 2.0, "subrequests_batched": 192.0}, "cache": {"coalesced":'
        ' 0.0, "hit_rate": 0.28888888888888886, "hits": 39.0, "invalidations": 0.0, "'
        'lookups": 135.0, "misses": 96.0}, "completed": 134, "epoll_per_query": 3.529'
        '850746268657, "futex_per_query": 7.447761194029851, "mean_us": 720.434729764'
        '054, "p50_us": 849.1939966375357, "p99_us": 1315.8898010436415, "qps": 1000.'
        '0, "sendmsg_per_query": 2.2686567164179103, "sent": 135}, {"batch": {"batche'
        's_sent": 0.0, "mean_occupancy": 0.0, "occupancy_p99": 0.0, "subrequests_batc'
        'hed": 0.0}, "cache": {"coalesced": 0.0, "hit_rate": 1.0, "hits": 390.0, "inv'
        'alidations": 0.0, "lookups": 390.0, "misses": 0.0}, "completed": 390, "epoll'
        '_per_query": 1.2307692307692308, "futex_per_query": 2.6487179487179486, "mea'
        'n_us": 151.0272738196193, "p50_us": 154.25464098507655, "p99_us": 237.463132'
        '9555792, "qps": 2500.0, "sendmsg_per_query": 1.0, "sent": 390}], "saturation'
        '_qps": 24880.0, "service": "hdsearch"}], "defaults": {"batch_max": 8, "batch'
        '_max_wait_us": 50.0, "cache_capacity": 4096, "cache_policy": "lru"}, "durati'
        'on_us": 150000.0, "reproducibility": {"bit_identical": true, "first": {"batc'
        'h": {"batches_sent": 0.0, "mean_occupancy": 0.0, "occupancy_p99": 0.0, "subr'
        'equests_batched": 0.0}, "cache": {"coalesced": 0.0, "hit_rate": 1.0, "hits":'
        ' 390.0, "invalidations": 0.0, "lookups": 390.0, "misses": 0.0}, "completed":'
        ' 390, "epoll_per_query": 1.2307692307692308, "futex_per_query": 2.6487179487'
        '179486, "mean_us": 151.0272738196193, "p50_us": 154.25464098507655, "p99_us"'
        ': 237.4631329555792, "qps": 2500.0, "sendmsg_per_query": 1.0, "sent": 390}, '
        '"qps": 2500.0, "second": {"batch": {"batches_sent": 0.0, "mean_occupancy": 0'
        '.0, "occupancy_p99": 0.0, "subrequests_batched": 0.0}, "cache": {"coalesced"'
        ': 0.0, "hit_rate": 1.0, "hits": 390.0, "invalidations": 0.0, "lookups": 390.'
        '0, "misses": 0.0}, "completed": 390, "epoll_per_query": 1.2307692307692308, '
        '"futex_per_query": 2.6487179487179486, "mean_us": 151.0272738196193, "p50_us'
        '": 154.25464098507655, "p99_us": 237.4631329555792, "qps": 2500.0, "sendmsg_'
        'per_query": 1.0, "sent": 390}, "service": "hdsearch"}, "scale": "unit", "see'
        'd": 0}',
    ),
    'trace': (
        'trace --scale unit --services hdsearch --loads 1000 --queries 150',
        0,
        """\
Critical-path attribution sweep
critical-path attribution cells:
 service   QPS  traces  e2e p99  active_exe   net   leaf  queue  tail AE us  tiling err
--------  ----  ------  -------  ----------  ----  -----  -----  ----------  ----------
hdsearch  1000     154     1007       46.1%  8.5%  29.5%   0.5%       124.8     0.0e+00

slowest exemplars (top 3 per cell):
 service   QPS  request  total us    dominant
--------  ----  -------  --------  ----------
hdsearch  1000      325      1172  active_exe
hdsearch  1000      193      1012  active_exe
hdsearch  1000      352      1003  active_exe

reproducibility (hdsearch @ 1000 QPS, double run): bit-identical

recorded out.json (acceptance: pass)
""",
        '{"acceptance": {"bit_reproducible": true, "crosscheck_gated": true, "crossch'
        'eck_qps": 1000.0, "crosscheck_rel_err": {"hdsearch": {"active_exe": 0.0, "ha'
        'rdirq": 0.0, "net_rx": 0.0, "net_tx": 0.0}}, "crosscheck_tolerance": 0.01, "'
        'crosscheck_within_tolerance": true, "max_tiling_error_us": 0.0, "pass": true'
        ', "runqueue_dominance_per_service": {"hdsearch": true}, "runqueue_dominates_'
        'midtier_tail": true, "runqueue_peaks_at_low_load": true, "runqueue_tail_us_b'
        'y_load": {"hdsearch": [124.8]}, "tiling_exact": true, "tiling_tolerance_us":'
        ' 1e-06, "traces_sampled_everywhere": true}, "benchmark": "per-request critic'
        'al-path attribution, scale=unit (150 queries/cell, sample_every=1), seed=0",'
        ' "categories": ["hardirq", "net_rx", "net_tx", "active_exe", "queue_dwell", '
        '"net", "leaf_compute", "app_compute"], "cells": [{"category_share": {"active'
        '_exe": 0.46054276680140493, "app_compute": 0.10164259678379992, "hardirq": 0'
        '.010839467167731699, "leaf_compute": 0.29539993737626175, "net": 0.085427756'
        '55829225, "net_rx": 0.025574096901702887, "net_tx": 0.015228456093159369, "q'
        'ueue_dwell": 0.005344922317647196}, "completed": 154, "crosscheck": {"active'
        '_exe": {"rel_err": 0.0, "telemetry_us": 35552.20000000141, "trace_us": 35552'
        '.20000000141}, "active_exe_runqlat": {"rel_err": 0.43774098148061, "telemetr'
        'y_us": 63231.00000000331, "trace_us": 35552.20000000141}, "hardirq": {"rel_e'
        'rr": 2.4888971034263324e-13, "telemetry_us": 822.6535136979428, "trace_us": '
        '822.653513697738}, "net_rx": {"rel_err": 1.7886797599267608e-14, "telemetry_'
        'us": 2084.7377830348405, "trace_us": 2084.737783034803}, "net_tx": {"rel_err'
        '": 7.450324565219611e-15, "telemetry_us": 1159.7078209421784, "trace_us": 11'
        '59.707820942187}}, "duration_us": 150000.0, "e2e_p50_us": 825.0485103362807,'
        ' "e2e_p99_us": 1007.0310425882818, "exemplars": [{"categories": {"active_exe'
        '": 487.88456499356835, "app_compute": 132.8001718534506, "hardirq": 11.37769'
        '653199939, "leaf_compute": 437.45654093856865, "net": 63.06923203221231, "ne'
        't_rx": 26.545536537116277, "net_tx": 11.253032970082131, "queue_dwell": 1.90'
        '00000000087311}, "dominant": "active_exe", "request_id": 325, "total_us": 11'
        '72.2867758570064}, {"categories": {"active_exe": 728.3107298265313, "app_com'
        'pute": 162.77037348476006, "hardirq": 6.6997537309725885, "leaf_compute": 7.'
        '550000000010186, "net": 68.72399576751923, "net_rx": 24.757252134164446, "ne'
        't_tx": 9.984591750435357, "queue_dwell": 2.750000000014552}, "dominant": "ac'
        'tive_exe", "request_id": 193, "total_us": 1011.5466966944077}, {"categories"'
        ': {"active_exe": 815.6734546537045, "app_compute": 27.725554978416767, "hard'
        'irq": 7.516712860582629, "leaf_compute": 71.39328217036382, "net": 49.564278'
        '16832729, "net_rx": 15.736527820772608, "net_tx": 12.76678395520139, "queue_'
        'dwell": 2.650000000008731}, "dominant": "active_exe", "request_id": 352, "to'
        'tal_us": 1003.0265946073778}, {"categories": {"active_exe": 687.487390879665'
        '3, "app_compute": 123.5963638764515, "hardirq": 7.403222433014889, "leaf_com'
        'pute": 88.16056246146763, "net": 60.790332468779525, "net_rx": 11.5320138319'
        '07534, "net_tx": 13.044131159520475, "queue_dwell": 2.750000000014552}, "dom'
        'inant": "active_exe", "request_id": 211, "total_us": 994.7640171108214}, {"c'
        'ategories": {"active_exe": 114.27352558710845, "app_compute": 88.25405114295'
        '427, "hardirq": 7.297133135172771, "leaf_compute": 661.6944698630832, "net":'
        ' 61.11419903789647, "net_rx": 30.411504379153484, "net_tx": 19.6298028820892'
        '8, "queue_dwell": 2.7499999999417923}, "dominant": "leaf_compute", "request_'
        'id": 434, "total_us": 985.4246860273997}], "max_tiling_error_us": 0.0, "midt'
        'ier_tail_us": {"active_exe": 124.7527604462836, "app_compute": 104.765366772'
        '20913, "hardirq": 5.37081445739265, "leaf_compute": 0.0, "net": 27.861910478'
        '46417, "net_rx": 12.286510573035534, "net_tx": 8.033178327042455, "queue_dwe'
        'll": 2.4333333333440046}, "qps": 1000.0, "sent": 154, "service": "hdsearch",'
        ' "traces": 154}], "queries_per_cell": 150, "reproducibility": {"bit_identica'
        'l": true, "first": {"category_share": {"active_exe": 0.46054276680140493, "a'
        'pp_compute": 0.10164259678379992, "hardirq": 0.010839467167731699, "leaf_com'
        'pute": 0.29539993737626175, "net": 0.08542775655829225, "net_rx": 0.02557409'
        '6901702887, "net_tx": 0.015228456093159369, "queue_dwell": 0.005344922317647'
        '196}, "completed": 154, "crosscheck": {"active_exe": {"rel_err": 0.0, "telem'
        'etry_us": 35552.20000000141, "trace_us": 35552.20000000141}, "active_exe_run'
        'qlat": {"rel_err": 0.43774098148061, "telemetry_us": 63231.00000000331, "tra'
        'ce_us": 35552.20000000141}, "hardirq": {"rel_err": 2.4888971034263324e-13, "'
        'telemetry_us": 822.6535136979428, "trace_us": 822.653513697738}, "net_rx": {'
        '"rel_err": 1.7886797599267608e-14, "telemetry_us": 2084.7377830348405, "trac'
        'e_us": 2084.737783034803}, "net_tx": {"rel_err": 7.450324565219611e-15, "tel'
        'emetry_us": 1159.7078209421784, "trace_us": 1159.707820942187}}, "duration_u'
        's": 150000.0, "e2e_p50_us": 825.0485103362807, "e2e_p99_us": 1007.0310425882'
        '818, "exemplars": [{"categories": {"active_exe": 487.88456499356835, "app_co'
        'mpute": 132.8001718534506, "hardirq": 11.37769653199939, "leaf_compute": 437'
        '.45654093856865, "net": 63.06923203221231, "net_rx": 26.545536537116277, "ne'
        't_tx": 11.253032970082131, "queue_dwell": 1.9000000000087311}, "dominant": "'
        'active_exe", "request_id": 325, "total_us": 1172.2867758570064}, {"categorie'
        's": {"active_exe": 728.3107298265313, "app_compute": 162.77037348476006, "ha'
        'rdirq": 6.6997537309725885, "leaf_compute": 7.550000000010186, "net": 68.723'
        '99576751923, "net_rx": 24.757252134164446, "net_tx": 9.984591750435357, "que'
        'ue_dwell": 2.750000000014552}, "dominant": "active_exe", "request_id": 193, '
        '"total_us": 1011.5466966944077}, {"categories": {"active_exe": 815.673454653'
        '7045, "app_compute": 27.725554978416767, "hardirq": 7.516712860582629, "leaf'
        '_compute": 71.39328217036382, "net": 49.56427816832729, "net_rx": 15.7365278'
        '20772608, "net_tx": 12.76678395520139, "queue_dwell": 2.650000000008731}, "d'
        'ominant": "active_exe", "request_id": 352, "total_us": 1003.0265946073778}, '
        '{"categories": {"active_exe": 687.4873908796653, "app_compute": 123.59636387'
        '64515, "hardirq": 7.403222433014889, "leaf_compute": 88.16056246146763, "net'
        '": 60.790332468779525, "net_rx": 11.532013831907534, "net_tx": 13.0441311595'
        '20475, "queue_dwell": 2.750000000014552}, "dominant": "active_exe", "request'
        '_id": 211, "total_us": 994.7640171108214}, {"categories": {"active_exe": 114'
        '.27352558710845, "app_compute": 88.25405114295427, "hardirq": 7.297133135172'
        '771, "leaf_compute": 661.6944698630832, "net": 61.11419903789647, "net_rx": '
        '30.411504379153484, "net_tx": 19.62980288208928, "queue_dwell": 2.7499999999'
        '417923}, "dominant": "leaf_compute", "request_id": 434, "total_us": 985.4246'
        '860273997}], "max_tiling_error_us": 0.0, "midtier_tail_us": {"active_exe": 1'
        '24.7527604462836, "app_compute": 104.76536677220913, "hardirq": 5.3708144573'
        '9265, "leaf_compute": 0.0, "net": 27.86191047846417, "net_rx": 12.2865105730'
        '35534, "net_tx": 8.033178327042455, "queue_dwell": 2.4333333333440046}, "qps'
        '": 1000.0, "sent": 154, "service": "hdsearch", "traces": 154}, "qps": 1000.0'
        ', "second": {"category_share": {"active_exe": 0.46054276680140493, "app_comp'
        'ute": 0.10164259678379992, "hardirq": 0.010839467167731699, "leaf_compute": '
        '0.29539993737626175, "net": 0.08542775655829225, "net_rx": 0.025574096901702'
        '887, "net_tx": 0.015228456093159369, "queue_dwell": 0.005344922317647196}, "'
        'completed": 154, "crosscheck": {"active_exe": {"rel_err": 0.0, "telemetry_us'
        '": 35552.20000000141, "trace_us": 35552.20000000141}, "active_exe_runqlat": '
        '{"rel_err": 0.43774098148061, "telemetry_us": 63231.00000000331, "trace_us":'
        ' 35552.20000000141}, "hardirq": {"rel_err": 2.4888971034263324e-13, "telemet'
        'ry_us": 822.6535136979428, "trace_us": 822.653513697738}, "net_rx": {"rel_er'
        'r": 1.7886797599267608e-14, "telemetry_us": 2084.7377830348405, "trace_us": '
        '2084.737783034803}, "net_tx": {"rel_err": 7.450324565219611e-15, "telemetry_'
        'us": 1159.7078209421784, "trace_us": 1159.707820942187}}, "duration_us": 150'
        '000.0, "e2e_p50_us": 825.0485103362807, "e2e_p99_us": 1007.0310425882818, "e'
        'xemplars": [{"categories": {"active_exe": 487.88456499356835, "app_compute":'
        ' 132.8001718534506, "hardirq": 11.37769653199939, "leaf_compute": 437.456540'
        '93856865, "net": 63.06923203221231, "net_rx": 26.545536537116277, "net_tx": '
        '11.253032970082131, "queue_dwell": 1.9000000000087311}, "dominant": "active_'
        'exe", "request_id": 325, "total_us": 1172.2867758570064}, {"categories": {"a'
        'ctive_exe": 728.3107298265313, "app_compute": 162.77037348476006, "hardirq":'
        ' 6.6997537309725885, "leaf_compute": 7.550000000010186, "net": 68.7239957675'
        '1923, "net_rx": 24.757252134164446, "net_tx": 9.984591750435357, "queue_dwel'
        'l": 2.750000000014552}, "dominant": "active_exe", "request_id": 193, "total_'
        'us": 1011.5466966944077}, {"categories": {"active_exe": 815.6734546537045, "'
        'app_compute": 27.725554978416767, "hardirq": 7.516712860582629, "leaf_comput'
        'e": 71.39328217036382, "net": 49.56427816832729, "net_rx": 15.73652782077260'
        '8, "net_tx": 12.76678395520139, "queue_dwell": 2.650000000008731}, "dominant'
        '": "active_exe", "request_id": 352, "total_us": 1003.0265946073778}, {"categ'
        'ories": {"active_exe": 687.4873908796653, "app_compute": 123.5963638764515, '
        '"hardirq": 7.403222433014889, "leaf_compute": 88.16056246146763, "net": 60.7'
        '90332468779525, "net_rx": 11.532013831907534, "net_tx": 13.044131159520475, '
        '"queue_dwell": 2.750000000014552}, "dominant": "active_exe", "request_id": 2'
        '11, "total_us": 994.7640171108214}, {"categories": {"active_exe": 114.273525'
        '58710845, "app_compute": 88.25405114295427, "hardirq": 7.297133135172771, "l'
        'eaf_compute": 661.6944698630832, "net": 61.11419903789647, "net_rx": 30.4115'
        '04379153484, "net_tx": 19.62980288208928, "queue_dwell": 2.7499999999417923}'
        ', "dominant": "leaf_compute", "request_id": 434, "total_us": 985.42468602739'
        '97}], "max_tiling_error_us": 0.0, "midtier_tail_us": {"active_exe": 124.7527'
        '604462836, "app_compute": 104.76536677220913, "hardirq": 5.37081445739265, "'
        'leaf_compute": 0.0, "net": 27.86191047846417, "net_rx": 12.286510573035534, '
        '"net_tx": 8.033178327042455, "queue_dwell": 2.4333333333440046}, "qps": 1000'
        '.0, "sent": 154, "service": "hdsearch", "traces": 154}, "service": "hdsearch'
        '"}, "sample_every": 1, "scale": "unit", "seed": 0}',
    ),
    'autoscale': (
        'autoscale --scale unit --replicas 1 2 --duration-us 150000 --base-qps 1500 --tick-us 15000 --window-us 15000',
        1,
        """\
Autoscale sweep — closed-loop controller vs static grid
diurnal (1500 QPS base, amplitude 0.65) + mid-tier antagonist:
      cell  done  p50 us  p99 us  replica-s
----------  ----  ------  ------  ---------
  static-1   214     706    1063      0.150
  static-2   214     684    1085      0.300
controller   214     711     991      0.150

p99 recovery 426.2% (gate 75%), replica-seconds savings 0.0% (gate 20%), bit-identical

recorded out.json (acceptance: FAIL)
""",
        '{"acceptance": {"best_static_label": "static-1", "best_static_p99_us": 1063.'
        '3, "best_static_replica_seconds": 0.15, "bit_reproducible": true, "controlle'
        'r_p99_us": 991.0, "controller_replica_seconds": 0.15, "p99_recovery": 4.2622'
        ', "pass": false, "recovery_gate": 0.75, "replica_seconds_savings": 0.0, "sav'
        'ings_gate": 0.2, "scale_downs": 0, "scale_ups": 0, "worst_static_p99_us": 10'
        '85.5}, "antagonist": {"busy_us": 150.0, "hog_threads": 2, "idle_mean_us": 30'
        '0.0, "kind": "midtier_pressure"}, "benchmark": "closed-loop autoscaling on h'
        'dsearch, scale=unit (midtier_cores=1, leaf target=80us), seed=0", "control":'
        ' {"batch_max_baseline": 4, "batch_max_overload": 8, "cooldown_us": 100000.0,'
        ' "hedge_percentile_baseline": 95.0, "hedge_percentile_overload": 99.0, "p99_'
        'high_us": 2600.0, "p99_low_us": 900.0, "policy": "threshold"}, "controller":'
        ' {"completed": 214, "controller": {"batch_retunes": 0, "hedge_retunes": 0, "'
        'mode": "baseline", "policy": "threshold", "replica_seconds": 0.4, "retires":'
        ' 0, "scale_downs": 0, "scale_events": [], "scale_ups": 0, "ticks": 26}, "exp'
        'ected_sent": 225.0, "label": "controller", "mean_us": 714.2221408795841, "p5'
        '0_us": 711.2376115656662, "p99_us": 991.0477144837328, "replica_seconds": 0.'
        '14999999999999997, "replicas": 2, "sent": 214, "thinned": 351}, "duration_us'
        '": 150000.0, "reproducibility": {"bit_identical": true, "first": {"completed'
        '": 214, "controller": {"batch_retunes": 0, "hedge_retunes": 0, "mode": "base'
        'line", "policy": "threshold", "replica_seconds": 0.4, "retires": 0, "scale_d'
        'owns": 0, "scale_events": [], "scale_ups": 0, "ticks": 26}, "expected_sent":'
        ' 225.0, "label": "controller", "mean_us": 714.2221408795841, "p50_us": 711.2'
        '376115656662, "p99_us": 991.0477144837328, "replica_seconds": 0.149999999999'
        '99997, "replicas": 2, "sent": 214, "thinned": 351}, "second": {"completed": '
        '214, "controller": {"batch_retunes": 0, "hedge_retunes": 0, "mode": "baselin'
        'e", "policy": "threshold", "replica_seconds": 0.4, "retires": 0, "scale_down'
        's": 0, "scale_events": [], "scale_ups": 0, "ticks": 26}, "expected_sent": 22'
        '5.0, "label": "controller", "mean_us": 714.2221408795841, "p50_us": 711.2376'
        '115656662, "p99_us": 991.0477144837328, "replica_seconds": 0.149999999999999'
        '97, "replicas": 2, "sent": 214, "thinned": 351}}, "scale": "unit", "seed": 0'
        ', "service": "hdsearch", "static_grid": [{"completed": 214, "controller": nu'
        'll, "expected_sent": 225.0, "label": "static-1", "mean_us": 703.885684994350'
        '8, "p50_us": 706.0405641670222, "p99_us": 1063.324065021155, "replica_second'
        's": 0.15, "replicas": 1, "sent": 214, "thinned": 351}, {"completed": 214, "c'
        'ontroller": null, "expected_sent": 225.0, "label": "static-2", "mean_us": 69'
        '4.9016420301198, "p50_us": 684.0675363492919, "p99_us": 1085.4797049845602, '
        '"replica_seconds": 0.3, "replicas": 2, "sent": 214, "thinned": 351}], "tick_'
        'us": 15000.0, "traffic": {"amplitude": 0.65, "base_qps": 1500.0, "curve": "d'
        'iurnal", "period_us": 150000.0}, "window_us": 15000.0}',
    ),
    'faults': (
        'faults --scale unit --qps 2000 --duration-us 100000 --sweep --services hdsearch',
        0,
        """\
Fault sweep — tail amplification, policy off vs on
 service  intensity  policy  p50 us  p99 us  tail amp  hedges  retries  partials  extra load
--------  ---------  ------  ------  ------  --------  ------  -------  --------  ----------
hdsearch       0.02     off     839   22630    18.71x       0        0         0       0.000
hdsearch       0.02      on     924   10085     8.34x     109       30        26       0.121
hdsearch       0.05     off     927   21890    18.10x       0        0         0       0.000
hdsearch       0.05      on    1980   10091     8.34x      80       34        28       0.099

Tail-tolerance recovery (leaf slowdown)
recovery cell      hdsearch @ 2000 QPS (intensity=0.05, scale=unit, seed=0)
healthy p99            1209.7 us
faulted p99 (off)     21890.1 us
faulted p99 (on)      10090.7 us
injected inflation    20680.5 us
recovered             11799.5 us (57.1% of the inflation)
hedges                     80 (wins 5, wasted 2)
retries                    34
partial replies            28
extra leaf load         0.099
completed/cell            184

recorded out.json (acceptance: pass)
""",
        '{"acceptance": {"achieved_recovery_fraction": 0.5706, "pass": true, "target_'
        'recovery_fraction": 0.5}, "benchmark": "leaf slowdown (p=0.05, pareto scale='
        '1500us alpha=1.8) on hdsearch @ 2000 QPS, scale=unit, seed=0", "policy": {"d'
        'eadline_us": 10000.0, "degrade_partial": true, "hedge_after_us": null, "hedg'
        'e_max_fraction": 0.1, "hedge_min_samples": 64, "hedge_percentile": 95.0, "he'
        'dging": true, "max_retries": 1, "retry_backoff": 2.0, "retry_max_backoff_us"'
        ': 32000.0, "retry_timeout_us": 8000.0}, "recovery": {"base_p50_us": 767.9925'
        '13247882, "base_p99_us": 1209.6519185133309, "completed": 184, "duration_us"'
        ': 100000.0, "extra_leaf_load": 0.09913043478260869, "faulted_p50_us": 927.30'
        '68769246602, "faulted_p99_us": 21890.14186818231, "hedge_wins": 5, "hedges_s'
        'ent": 80, "hedges_wasted": 2, "injected_p99_inflation_us": 20680.48994966898'
        ', "intensity": 0.05, "partial_replies": 28, "qps": 2000.0, "recovered_p99_us'
        '": 11799.460975074744, "recovery_fraction": 0.5705600304340764, "retries_sen'
        't": 34, "scale": "unit", "seed": 0, "service": "hdsearch", "tolerant_p50_us"'
        ': 1979.795228442672, "tolerant_p99_us": 10090.680893107565}, "sweep": [{"com'
        'pleted": 152, "extra_leaf_load": 0.0, "healthy_p99_us": 1209.6519185133309, '
        '"hedge_wins": 0, "hedges_sent": 0, "intensity": 0.02, "p50_us": 839.05459019'
        '29145, "p99_us": 22629.815799630647, "partial_replies": 0, "policy_on": fals'
        'e, "qps": 2000.0, "retries_sent": 0, "service": "hdsearch", "tail_amplificat'
        'ion": 18.708}, {"completed": 186, "extra_leaf_load": 0.1208695652173913, "he'
        'althy_p99_us": 1209.6519185133309, "hedge_wins": 17, "hedges_sent": 109, "in'
        'tensity": 0.02, "p50_us": 924.2900574069208, "p99_us": 10084.568725468185, "'
        'partial_replies": 26, "policy_on": true, "qps": 2000.0, "retries_sent": 30, '
        '"service": "hdsearch", "tail_amplification": 8.337}, {"completed": 147, "ext'
        'ra_leaf_load": 0.0, "healthy_p99_us": 1209.6519185133309, "hedge_wins": 0, "'
        'hedges_sent": 0, "intensity": 0.05, "p50_us": 927.3068769246602, "p99_us": 2'
        '1890.14186818231, "partial_replies": 0, "policy_on": false, "qps": 2000.0, "'
        'retries_sent": 0, "service": "hdsearch", "tail_amplification": 18.096}, {"co'
        'mpleted": 184, "extra_leaf_load": 0.09913043478260869, "healthy_p99_us": 120'
        '9.6519185133309, "hedge_wins": 5, "hedges_sent": 80, "intensity": 0.05, "p50'
        '_us": 1979.795228442672, "p99_us": 10090.680893107565, "partial_replies": 28'
        ', "policy_on": true, "qps": 2000.0, "retries_sent": 34, "service": "hdsearch'
        '", "tail_amplification": 8.342}]}',
    ),
    'energy': (
        'energy --qps 600 --queries 150 --tiers 3 --lowload-qps 100',
        0,
        """\
Energy sweep — tier granularity + low-load C-state tension
energy vs. granularity (6 cores, 128us work/query at every rung, 150 queries/cell @ 600 QPS):
    graph  tiers  QPS  done  p50 us  p99 us      J  uJ/query  wakes  avg W
---------  -----  ---  ----  ------  ------  -----  --------  -----  -----
pipeline3      1  600   133     397     500  0.641      4821    540   2.56
pipeline3      2  600   133     497     689  1.287      9680   2746   5.15
pipeline3      3  600   133     579     757  1.435     10788   3504   5.74

granularity: 3 tiers burn 2.24x the monolith's joules at the same load (p99 +257us) — monotone in tier count
low load (100 QPS, one hop): disabling deep C-states cuts p99 548 -> 324us (-224us) but raises idle energy 9.919 -> 35.554J (+25.635J)

reproducibility (deepest rung, double run): bit-identical
streaming telemetry energy aggregate: identical

recorded out.json (acceptance: pass)
""",
        '{"acceptance": {"added_p99_us_fine_vs_monolith": 256.9072642318636, "bit_rep'
        'roducible": true, "cells_completed": true, "energy_monotone_with_tiers": tru'
        'e, "energy_ratio_fine_vs_monolith": 2.2379608988803996, "ladder_points": 3, '
        '"ladder_points_ok": true, "lowload_idle_uj_cost": 25634985.58870411, "lowloa'
        'd_p99_saved_us": 223.9480930442083, "lowload_shallow_cuts_p99": true, "lowlo'
        'ad_shallow_raises_idle_uj": true, "pass": true, "streaming_identical": true}'
        ', "benchmark": "per-core energy: granularity ladder (1-3 tiers @ 600 QPS) + '
        'low-load C-state tension (@ 100 QPS), seed=0", "granularity_tradeoff": {"add'
        'ed_p99_us_fine_vs_monolith": 256.9072642318636, "e2e_p99_us": [500.272099123'
        '1001, 689.3208718787323, 757.1793633549637], "energy_ratio_fine_vs_monolith"'
        ': 2.2379608988803996, "monotone_nondecreasing": true, "tiers": [1, 2, 3], "t'
        'otal_uj": [641141.7242621174, 1287410.224313746, 1434850.1095393775], "uj_pe'
        'r_query": [4820.614468136221, 9679.776122659745, 10788.346688265996], "wakes'
        '_total": [540, 2746, 3504]}, "ladder": [{"completed": 133, "cstates": "deep"'
        ', "duration_us": 250000.0, "e2e_p50_us": 397.0516281576856, "e2e_p99_us": 50'
        '0.2720991231001, "energy": {"active_uj": 254300.30792070343, "active_us": 72'
        '657.23083448669, "avg_power_w": 2.56456689704847, "by_machine": {"pipeline3-'
        'stage0+stage1+stage2": {"active_uj": 254300.30792070343, "idle_uj": 366687.4'
        '163414139, "total_uj": 641141.7242621174, "wakeup_uj": 20154.0}}, "completed'
        '": 133, "duration_us": 250000.0, "idle_uj": {"C1": 16150.548909365785, "C1E"'
        ': 238719.19288699573, "C6": 111817.6745450524}, "idle_uj_total": 366687.4163'
        '414139, "idle_us": {"C1": 10767.032606243856, "C1E": 298398.99110874464, "C6'
        '": 1118176.745450524}, "total_uj": 641141.7242621174, "uj_per_query": 4820.6'
        '14468136221, "wake_share": 0.031434547522538804, "wakes": {"C1": 1, "C1E": 4'
        '4, "C6": 495}, "wakeup_uj": {"C1": 2.0, "C1E": 352.0, "C6": 19800.0}, "wakeu'
        'p_uj_total": 20154.0}, "graph": "pipeline3", "qps": 600.0, "sent": 134, "tie'
        'rs": 1}, {"completed": 133, "cstates": "deep", "duration_us": 250000.0, "e2e'
        '_p50_us": 497.0545224678499, "e2e_p99_us": 689.3208718787323, "energy": {"ac'
        'tive_uj": 454807.84312411514, "active_us": 129945.09803546147, "avg_power_w"'
        ': 5.149640897254984, "by_machine": {"pipeline3-stage0+stage1": {"active_uj":'
        ' 318158.56610442256, "idle_uj": 564189.1292633909, "total_uj": 915013.695367'
        '8135, "wakeup_uj": 32666.0}, "pipeline3-stage2": {"active_uj": 136649.277019'
        '69258, "idle_uj": 222185.25192623973, "total_uj": 372396.5289459323, "wakeup'
        '_uj": 13562.0}}, "completed": 133, "duration_us": 250000.0, "idle_uj": {"C1"'
        ': 76123.82079784892, "C1E": 660937.1332364012, "C6": 49313.427155380545}, "i'
        'dle_uj_total": 786374.3811896308, "idle_us": {"C1": 50749.21386523262, "C1E"'
        ': 826171.4165455014, "C6": 493134.2715538054}, "total_uj": 1287410.224313746'
        ', "uj_per_query": 9679.776122659745, "wake_share": 0.035907746518513035, "wa'
        'kes": {"C1": 394, "C1E": 1520, "C6": 832}, "wakeup_uj": {"C1": 788.0, "C1E":'
        ' 12160.0, "C6": 33280.0}, "wakeup_uj_total": 46228.0}, "graph": "pipeline3",'
        ' "qps": 600.0, "sent": 134, "tiers": 2}, {"completed": 133, "cstates": "deep'
        '", "duration_us": 250000.0, "e2e_p50_us": 579.4463811742462, "e2e_p99_us": 7'
        '57.1793633549637, "energy": {"active_uj": 502212.36924497725, "active_us": 1'
        '43489.2483557078, "avg_power_w": 5.73940043815751, "by_machine": {"pipeline3'
        '-stage0": {"active_uj": 182609.92308881643, "idle_uj": 330926.76171911194, "'
        'total_uj": 530992.6848079284, "wakeup_uj": 17456.0}, "pipeline3-stage1": {"a'
        'ctive_uj": 184523.8511410678, "idle_uj": 334729.3846631199, "total_uj": 5370'
        '57.2358041877, "wakeup_uj": 17804.0}, "pipeline3-stage2": {"active_uj": 1350'
        '78.59501509304, "idle_uj": 218317.59391216814, "total_uj": 366800.1889272611'
        '6, "wakeup_uj": 13404.0}}, "completed": 133, "duration_us": 250000.0, "idle_'
        'uj": {"C1": 99015.08365350969, "C1E": 749609.8137752707, "C6": 35348.8428656'
        '1969}, "idle_uj_total": 883973.7402944001, "idle_us": {"C1": 66010.055769006'
        '46, "C1E": 937012.2672190884, "C6": 353488.4286561969}, "total_uj": 1434850.'
        '1095393775, "uj_per_query": 10788.346688265996, "wake_share": 0.033915737732'
        '0913, "wakes": {"C1": 316, "C1E": 2484, "C6": 704}, "wakeup_uj": {"C1": 632.'
        '0, "C1E": 19872.0, "C6": 28160.0}, "wakeup_uj_total": 48664.0}, "graph": "pi'
        'peline3", "qps": 600.0, "sent": 134, "tiers": 3}], "lowload": {"deep": {"com'
        'pleted": 386, "cstates": "deep", "duration_us": 4000000.0, "e2e_p50_us": 419'
        '.6680066054687, "e2e_p99_us": 547.8977350446115, "energy": {"active_uj": 471'
        '8196.583133539, "active_us": 1348056.1666095825, "avg_power_w": 3.8008225860'
        '04119, "by_machine": {"onehop-gateway": {"active_uj": 2230941.884469478, "id'
        'le_uj": 5321954.08187319, "total_uj": 7840467.966342667, "wakeup_uj": 287572'
        '.0}, "onehop-store": {"active_uj": 2487254.6986640613, "idle_uj": 4596941.67'
        '9009749, "total_uj": 7362822.37767381, "wakeup_uj": 278626.0}}, "completed":'
        ' 386, "duration_us": 4000000.0, "idle_uj": {"C1": 826800.3962547833, "C1E": '
        '7865166.865949831, "C6": 1226928.498678325}, "idle_uj_total": 9918895.760882'
        '938, "idle_us": {"C1": 551200.2641698555, "C1E": 9831458.582437288, "C6": 12'
        '269284.98678325}, "total_uj": 15203290.344016477, "uj_per_query": 39386.7625'
        '49265484, "wake_share": 0.0372418066871187, "wakes": {"C1": 1591, "C1E": 159'
        '17, "C6": 10892}, "wakeup_uj": {"C1": 3182.0, "C1E": 127336.0, "C6": 435680.'
        '0}, "wakeup_uj_total": 566198.0}, "graph": "onehop", "qps": 100.0, "sent": 3'
        '87, "tiers": 2}, "shallow": {"completed": 386, "cstates": "shallow", "durati'
        'on_us": 4000000.0, "e2e_p50_us": 268.3271207063226, "e2e_p99_us": 323.949642'
        '00040323, "energy": {"active_uj": 1040943.5176300289, "active_us": 297412.43'
        '36085797, "avg_power_w": 9.163400716804269, "by_machine": {"onehop-gateway":'
        ' {"active_uj": 580516.1072780951, "idle_uj": 11751207.382595096, "total_uj":'
        ' 12375385.489873191, "wakeup_uj": 43662.0}, "onehop-store": {"active_uj": 46'
        '0427.41035193397, "idle_uj": 23802673.96699195, "total_uj": 24278217.3773438'
        '86, "wakeup_uj": 15116.0}}, "completed": 386, "duration_us": 4000000.0, "idl'
        'e_uj": {"C1": 35553881.349587046}, "idle_uj_total": 35553881.349587046, "idl'
        'e_us": {"C1": 23702587.566391364}, "total_uj": 36653602.86721707, "uj_per_qu'
        'ery": 94957.52038139138, "wake_share": 0.0016036077057126343, "wakes": {"C1"'
        ': 29389}, "wakeup_uj": {"C1": 58778.0}, "wakeup_uj_total": 58778.0}, "graph"'
        ': "onehop", "qps": 100.0, "sent": 387, "tiers": 2}}, "lowload_qps": 100.0, "'
        'lowload_queries": 400, "lowload_tradeoff": {"idle_uj_cost": 25634985.5887041'
        '1, "idle_uj_deep": 9918895.760882938, "idle_uj_shallow": 35553881.349587046,'
        ' "p99_saved_us": 223.9480930442083, "p99_us_deep": 547.8977350446115, "p99_u'
        's_shallow": 323.94964200040323, "total_uj_deep": 15203290.344016477, "total_'
        'uj_shallow": 36653602.86721707}, "power_model": {"active_w": 3.5, "enabled":'
        ' true, "idle_w": [["C1", 1.5], ["C1E", 0.8], ["C6", 0.1]], "wake_uj": [["C1"'
        ', 2.0], ["C1E", 8.0], ["C6", 40.0]]}, "qps": 600.0, "queries_per_cell": 150,'
        ' "reproducibility": {"bit_identical": true, "first": {"completed": 133, "cst'
        'ates": "deep", "duration_us": 250000.0, "e2e_p50_us": 579.4463811742462, "e2'
        'e_p99_us": 757.1793633549637, "energy": {"active_uj": 502212.36924497725, "a'
        'ctive_us": 143489.2483557078, "avg_power_w": 5.73940043815751, "by_machine":'
        ' {"pipeline3-stage0": {"active_uj": 182609.92308881643, "idle_uj": 330926.76'
        '171911194, "total_uj": 530992.6848079284, "wakeup_uj": 17456.0}, "pipeline3-'
        'stage1": {"active_uj": 184523.8511410678, "idle_uj": 334729.3846631199, "tot'
        'al_uj": 537057.2358041877, "wakeup_uj": 17804.0}, "pipeline3-stage2": {"acti'
        've_uj": 135078.59501509304, "idle_uj": 218317.59391216814, "total_uj": 36680'
        '0.18892726116, "wakeup_uj": 13404.0}}, "completed": 133, "duration_us": 2500'
        '00.0, "idle_uj": {"C1": 99015.08365350969, "C1E": 749609.8137752707, "C6": 3'
        '5348.84286561969}, "idle_uj_total": 883973.7402944001, "idle_us": {"C1": 660'
        '10.05576900646, "C1E": 937012.2672190884, "C6": 353488.4286561969}, "total_u'
        'j": 1434850.1095393775, "uj_per_query": 10788.346688265996, "wake_share": 0.'
        '0339157377320913, "wakes": {"C1": 316, "C1E": 2484, "C6": 704}, "wakeup_uj":'
        ' {"C1": 632.0, "C1E": 19872.0, "C6": 28160.0}, "wakeup_uj_total": 48664.0}, '
        '"graph": "pipeline3", "qps": 600.0, "sent": 134, "tiers": 3}, "second": {"co'
        'mpleted": 133, "cstates": "deep", "duration_us": 250000.0, "e2e_p50_us": 579'
        '.4463811742462, "e2e_p99_us": 757.1793633549637, "energy": {"active_uj": 502'
        '212.36924497725, "active_us": 143489.2483557078, "avg_power_w": 5.7394004381'
        '5751, "by_machine": {"pipeline3-stage0": {"active_uj": 182609.92308881643, "'
        'idle_uj": 330926.76171911194, "total_uj": 530992.6848079284, "wakeup_uj": 17'
        '456.0}, "pipeline3-stage1": {"active_uj": 184523.8511410678, "idle_uj": 3347'
        '29.3846631199, "total_uj": 537057.2358041877, "wakeup_uj": 17804.0}, "pipeli'
        'ne3-stage2": {"active_uj": 135078.59501509304, "idle_uj": 218317.59391216814'
        ', "total_uj": 366800.18892726116, "wakeup_uj": 13404.0}}, "completed": 133, '
        '"duration_us": 250000.0, "idle_uj": {"C1": 99015.08365350969, "C1E": 749609.'
        '8137752707, "C6": 35348.84286561969}, "idle_uj_total": 883973.7402944001, "i'
        'dle_us": {"C1": 66010.05576900646, "C1E": 937012.2672190884, "C6": 353488.42'
        '86561969}, "total_uj": 1434850.1095393775, "uj_per_query": 10788.34668826599'
        '6, "wake_share": 0.0339157377320913, "wakes": {"C1": 316, "C1E": 2484, "C6":'
        ' 704}, "wakeup_uj": {"C1": 632.0, "C1E": 19872.0, "C6": 28160.0}, "wakeup_uj'
        '_total": 48664.0}, "graph": "pipeline3", "qps": 600.0, "sent": 134, "tiers":'
        ' 3}}, "seed": 0, "streaming": {"energy": {"active_uj": 502212.36924497725, "'
        'active_us": 143489.2483557078, "avg_power_w": 5.73940043815751, "by_machine"'
        ': {"pipeline3-stage0": {"active_uj": 182609.92308881643, "idle_uj": 330926.7'
        '6171911194, "total_uj": 530992.6848079284, "wakeup_uj": 17456.0}, "pipeline3'
        '-stage1": {"active_uj": 184523.8511410678, "idle_uj": 334729.3846631199, "to'
        'tal_uj": 537057.2358041877, "wakeup_uj": 17804.0}, "pipeline3-stage2": {"act'
        'ive_uj": 135078.59501509304, "idle_uj": 218317.59391216814, "total_uj": 3668'
        '00.18892726116, "wakeup_uj": 13404.0}}, "completed": 133, "duration_us": 250'
        '000.0, "idle_uj": {"C1": 99015.08365350969, "C1E": 749609.8137752707, "C6": '
        '35348.84286561969}, "idle_uj_total": 883973.7402944001, "idle_us": {"C1": 66'
        '010.05576900646, "C1E": 937012.2672190884, "C6": 353488.4286561969}, "total_'
        'uj": 1434850.1095393775, "uj_per_query": 10788.346688265996, "wake_share": 0'
        '.0339157377320913, "wakes": {"C1": 316, "C1E": 2484, "C6": 704}, "wakeup_uj"'
        ': {"C1": 632.0, "C1E": 19872.0, "C6": 28160.0}, "wakeup_uj_total": 48664.0},'
        ' "identical": true}, "total_cores": 6, "work_per_query_us": 128.0, "workload'
        '_queries": 300}',
    ),
    'graph': (
        'graph --queries 100',
        0,
        """\
Service-graph amplification sweep
service-graph amplification (5 tiers, 16 storage reads per query vs. 4 one hop away; Pareto p=0.02 scale=1500us alpha=1.8 at 'store'):
    graph    faults   QPS  done  p50 us  p99 us  traces
---------  --------  ----  ----  ------  ------  ------
   onehop     clean  1200    91     347     551       -
   onehop  injected  1200    91     394    7877       -
socialnet     clean  1200    91    1035    1398     200
socialnet  injected  1200    93    1884   12777     200

added p99: one-hop +7326us, deep +11379us -> amplification 1.55x (gate 1.5x)
attribution: 98.2% of added tail time on socialnet-store (gate 50%)
traffic: 101 arrivals vs 109.5 expected (rel err 0.078, 156 thinned)
sessions: interactive 97 done (max in-flight 6/6), reporting 16 done (max in-flight 3/3), bulk 154 done (max in-flight 2/2) - conserved

reproducibility (deep injected cell, double run): bit-identical

recorded out.json (acceptance: pass)
""",
        '{"acceptance": {"amplification_gate": 1.5, "amplification_ok": true, "amplif'
        'ication_ratio": 1.5532496146138657, "arrivals_ok": true, "arrivals_rel_err":'
        ' 0.07763820813885793, "arrivals_thinned": 156, "arrivals_tolerance": 0.1, "a'
        'ttribution_gate": 0.5, "attribution_ok": true, "bit_reproducible": true, "ce'
        'lls_completed": true, "injected_share": 0.9815337284040585, "pass": true, "s'
        'essions_conserved": true, "tail_traced": true}, "amplification": {"added_p99'
        '_us_deep": 11378.761209200235, "added_p99_us_onehop": 7325.777584067818, "in'
        'flation_deep": 9.13901915885096, "inflation_onehop": 14.294523699131217, "ra'
        'tio": 1.5532496146138657}, "attribution": {"added_tail_us_by_machine": {"-":'
        ' 7.0, "socialnet-compose": 11.01036939901374, "socialnet-frontend": 21.83485'
        '488324125, "socialnet-social": 247.57597675436102, "socialnet-store": 17913.'
        '136990053426, "socialnet-timeline": 49.591010791786175}, "injected_machine":'
        ' "socialnet-store", "injected_share": 0.9815337284040585}, "benchmark": "ser'
        'vice-graph tail amplification, 5-tier exemplar vs one hop (100 queries/cell '
        '@ 1200 QPS), seed=0", "cells": {"deep_clean": {"completed": 91, "duration_us'
        '": 83333.33333333333, "e2e_p50_us": 1034.6344135626277, "e2e_p99_us": 1398.0'
        '50672583335, "graph": "socialnet", "injected": false, "machine_tail_us": {"c'
        'lient1": 11.348335202429249, "socialnet-compose": 181.61076763840296, "socia'
        'lnet-frontend": 124.41204341004293, "socialnet-media": 44.332641397037754, "'
        'socialnet-social": 528.9733965772539, "socialnet-store": 526.3180315224794, '
        '"socialnet-timeline": 174.47399351930167, "socialnet-user": 25.0604390959924'
        '8}, "qps": 1200.0, "sent": 92, "tail_traces": 3, "traces": 200}, "deep_injec'
        'ted": {"completed": 93, "duration_us": 83333.33333333333, "e2e_p50_us": 1884'
        '.0280016596662, "e2e_p99_us": 12776.81188178357, "graph": "socialnet", "inje'
        'cted": true, "machine_tail_us": {"-": 7.0, "client1": 4.70093119137285, "soc'
        'ialnet-compose": 192.6211370374167, "socialnet-frontend": 146.24689829328418'
        ', "socialnet-media": 13.185655265310439, "socialnet-social": 776.54937333161'
        '49, "socialnet-store": 18439.455021575905, "socialnet-timeline": 224.0650043'
        '1108785, "socialnet-user": 14.008253848261424}, "qps": 1200.0, "sent": 92, "'
        'tail_traces": 3, "traces": 200}, "onehop_clean": {"completed": 91, "duration'
        '_us": 83333.33333333333, "e2e_p50_us": 347.11365177930566, "e2e_p99_us": 551'
        '.0372353201755, "graph": "onehop", "injected": false, "machine_tail_us": {},'
        ' "qps": 1200.0, "sent": 92, "tail_traces": 0, "traces": 0}, "onehop_injected'
        '": {"completed": 91, "duration_us": 83333.33333333333, "e2e_p50_us": 394.367'
        '14383352955, "e2e_p99_us": 7876.814819387993, "graph": "onehop", "injected":'
        ' true, "machine_tail_us": {}, "qps": 1200.0, "sent": 92, "tail_traces": 0, "'
        'traces": 0}}, "graphs": {"deep": {"edges": [{"dst": "compose", "fanout": 1, '
        '"mode": "sync", "request_bytes": 96, "src": "frontend"}, {"dst": "analytics"'
        ', "fanout": 1, "mode": "async", "request_bytes": 96, "src": "frontend"}, {"d'
        'st": "timeline", "fanout": 2, "mode": "sync", "request_bytes": 96, "src": "c'
        'ompose"}, {"dst": "media", "fanout": 1, "mode": "sync", "request_bytes": 96,'
        ' "src": "compose"}, {"dst": "user", "fanout": 1, "mode": "sync", "request_by'
        'tes": 96, "src": "compose"}, {"dst": "social", "fanout": 2, "mode": "sync", '
        '"request_bytes": 96, "src": "timeline"}, {"dst": "store", "fanout": 4, "mode'
        '": "sync", "request_bytes": 96, "src": "social"}], "n_queries": 300, "name":'
        ' "socialnet", "nodes": [{"batch": {"enabled": false, "max_batch": 8, "max_wa'
        'it_us": 50.0}, "cache": {"capacity": 1024, "enabled": false, "policy": "lru"'
        ', "ttl_us": null}, "cores": 2, "lb": {"policy": "round-robin", "pool_size": '
        '128}, "merge_us": 5.0, "name": "frontend", "replicas": 1, "response_bytes": '
        '64, "service_us": 15.0}, {"batch": {"enabled": false, "max_batch": 8, "max_w'
        'ait_us": 50.0}, "cache": {"capacity": 1024, "enabled": false, "policy": "lru'
        '", "ttl_us": null}, "cores": 2, "lb": {"policy": "round-robin", "pool_size":'
        ' 128}, "merge_us": 6.0, "name": "compose", "replicas": 1, "response_bytes": '
        '64, "service_us": 25.0}, {"batch": {"enabled": false, "max_batch": 8, "max_w'
        'ait_us": 50.0}, "cache": {"capacity": 1024, "enabled": false, "policy": "lru'
        '", "ttl_us": null}, "cores": 2, "lb": {"policy": "round-robin", "pool_size":'
        ' 128}, "merge_us": 5.0, "name": "timeline", "replicas": 1, "response_bytes":'
        ' 64, "service_us": 20.0}, {"batch": {"enabled": false, "max_batch": 8, "max_'
        'wait_us": 50.0}, "cache": {"capacity": 1024, "enabled": false, "policy": "lr'
        'u", "ttl_us": null}, "cores": 2, "lb": {"policy": "round-robin", "pool_size"'
        ': 128}, "merge_us": 5.0, "name": "social", "replicas": 1, "response_bytes": '
        '64, "service_us": 18.0}, {"batch": {"enabled": false, "max_batch": 8, "max_w'
        'ait_us": 50.0}, "cache": {"capacity": 1024, "enabled": false, "policy": "lru'
        '", "ttl_us": null}, "cores": 4, "lb": {"policy": "round-robin", "pool_size":'
        ' 128}, "merge_us": 5.0, "name": "store", "replicas": 1, "response_bytes": 64'
        ', "service_us": 30.0}, {"batch": {"enabled": false, "max_batch": 8, "max_wai'
        't_us": 50.0}, "cache": {"capacity": 1024, "enabled": false, "policy": "lru",'
        ' "ttl_us": null}, "cores": 2, "lb": {"policy": "round-robin", "pool_size": 1'
        '28}, "merge_us": 5.0, "name": "media", "replicas": 1, "response_bytes": 64, '
        '"service_us": 30.0}, {"batch": {"enabled": false, "max_batch": 8, "max_wait_'
        'us": 50.0}, "cache": {"capacity": 1024, "enabled": false, "policy": "lru", "'
        'ttl_us": null}, "cores": 2, "lb": {"policy": "round-robin", "pool_size": 128'
        '}, "merge_us": 5.0, "name": "user", "replicas": 1, "response_bytes": 64, "se'
        'rvice_us": 25.0}, {"batch": {"enabled": false, "max_batch": 8, "max_wait_us"'
        ': 50.0}, "cache": {"capacity": 1024, "enabled": false, "policy": "lru", "ttl'
        '_us": null}, "cores": 1, "lb": {"policy": "round-robin", "pool_size": 128}, '
        '"merge_us": 5.0, "name": "analytics", "replicas": 1, "response_bytes": 64, "'
        'service_us": 40.0}], "request_bytes": 96, "root": "frontend", "units_high": '
        '1.5, "units_low": 0.5}, "depth": 5, "onehop": {"edges": [{"dst": "store", "f'
        'anout": 4, "mode": "sync", "request_bytes": 96, "src": "gateway"}], "n_queri'
        'es": 300, "name": "onehop", "nodes": [{"batch": {"enabled": false, "max_batc'
        'h": 8, "max_wait_us": 50.0}, "cache": {"capacity": 1024, "enabled": false, "'
        'policy": "lru", "ttl_us": null}, "cores": 2, "lb": {"policy": "round-robin",'
        ' "pool_size": 128}, "merge_us": 5.0, "name": "gateway", "replicas": 1, "resp'
        'onse_bytes": 64, "service_us": 15.0}, {"batch": {"enabled": false, "max_batc'
        'h": 8, "max_wait_us": 50.0}, "cache": {"capacity": 1024, "enabled": false, "'
        'policy": "lru", "ttl_us": null}, "cores": 4, "lb": {"policy": "round-robin",'
        ' "pool_size": 128}, "merge_us": 5.0, "name": "store", "replicas": 1, "respon'
        'se_bytes": 64, "service_us": 30.0}], "request_bytes": 96, "root": "gateway",'
        ' "units_high": 1.5, "units_low": 0.5}, "visits_per_query": {"analytics": 1.0'
        ', "compose": 1.0, "frontend": 1.0, "media": 1.0, "social": 4.0, "store": 16.'
        '0, "timeline": 2.0, "user": 1.0}}, "injection": {"intensity": 0.02, "leaf_in'
        'dex": 0, "node": "store", "tail_alpha": 1.8, "tail_scale_us": 1500.0}, "qps"'
        ': 1200.0, "queries_per_cell": 100, "reproducibility": {"bit_identical": true'
        ', "first": {"completed": 93, "duration_us": 83333.33333333333, "e2e_p50_us":'
        ' 1884.0280016596662, "e2e_p99_us": 12776.81188178357, "graph": "socialnet", '
        '"injected": true, "machine_tail_us": {"-": 7.0, "client1": 4.70093119137285,'
        ' "socialnet-compose": 192.6211370374167, "socialnet-frontend": 146.246898293'
        '28418, "socialnet-media": 13.185655265310439, "socialnet-social": 776.549373'
        '3316149, "socialnet-store": 18439.455021575905, "socialnet-timeline": 224.06'
        '500431108785, "socialnet-user": 14.008253848261424}, "qps": 1200.0, "sent": '
        '92, "tail_traces": 3, "traces": 200}, "second": {"completed": 93, "duration_'
        'us": 83333.33333333333, "e2e_p50_us": 1884.0280016596662, "e2e_p99_us": 1277'
        '6.81188178357, "graph": "socialnet", "injected": true, "machine_tail_us": {"'
        '-": 7.0, "client1": 4.70093119137285, "socialnet-compose": 192.6211370374167'
        ', "socialnet-frontend": 146.24689829328418, "socialnet-media": 13.1856552653'
        '10439, "socialnet-social": 776.5493733316149, "socialnet-store": 18439.45502'
        '1575905, "socialnet-timeline": 224.06500431108785, "socialnet-user": 14.0082'
        '53848261424}, "qps": 1200.0, "sent": 92, "tail_traces": 3, "traces": 200}}, '
        '"seed": 0, "sessions": {"classes": {"bulk": {"clients": 2, "completed": 154,'
        ' "max_in_flight": 2, "think_mean_us": 0.0}, "interactive": {"clients": 6, "c'
        'ompleted": 97, "max_in_flight": 6, "think_mean_us": 4000.0}, "reporting": {"'
        'clients": 3, "completed": 16, "max_in_flight": 3, "think_mean_us": 15000.0}}'
        ', "conserved": true, "duration_us": 83333.33333333333}, "traffic": {"complet'
        'ed": 101, "curve": "flash(x2.5 @ [45833.3, 62500]us) over diurnal(base=960, '
        'amp=0.4, period=55555.6us)", "duration_us": 83333.33333333333, "expected_arr'
        'ivals": 109.50150026943565, "rel_err": 0.07763820813885793, "sent": 101, "th'
        'inned": 156}, "workload_queries": 300}',
    ),
}
