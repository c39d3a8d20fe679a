"""The ``FIGURES`` table: every row renders, every row is a registered
command, and every figure command's stdout is pinned.

The stdout literals were captured by running the same argv at the commit
before the ten per-figure modules became rows of
:data:`repro.experiments.figures.FIGURES`; they pin titles, headers,
column formatting, footers, pivots and ``--plot`` violins byte for byte.
The rows whose cells had an eventfd read block (a drained kick counter
once parked the reader) were re-captured when eventfd reads became
non-blocking: fig9, fig10, syscalls, block-poll, inline-dispatch,
poolsize and sweep.  Only the numbers of those cells moved.
"""

import pytest

from repro.experiments import characterize, registry
from repro.experiments.cli import main
from repro.experiments.figures import EXPERIMENTS, FIGURES, render


def test_every_row_is_a_registered_command():
    # (tests/test_experiments.py pins the registry's order.)
    assert set(FIGURES) == set(EXPERIMENTS) == set(PINNED)
    for name, fig in FIGURES.items():
        assert fig.name == name
        assert registry.BY_NAME[name] is EXPERIMENTS[name]
    # The commands that are not rows each live in their own module.
    others = {exp.name for exp in registry.EXPERIMENTS} - set(FIGURES)
    assert others == {
        "headline", "compression", "trace", "faults", "scale", "cache",
        "autoscale", "graph", "energy", "figure-smoke", "all",
    }


@pytest.fixture(scope="module")
def cells():
    """Two tiny cells every row can render."""
    return {
        qps: characterize("hdsearch", qps, scale="unit", duration_us=60_000,
                          warmup_us=30_000)
        for qps in (100.0, 1_000.0)
    }


@pytest.mark.parametrize("name", [n for n in FIGURES if n != "fig9"])
def test_every_row_renders(name, cells):
    fig = FIGURES[name]
    variants = list(fig.runtimes) if fig.runtimes else ["hdsearch"]
    text = render(fig, {variant: cells for variant in variants})
    for header, _read in fig.columns:
        assert header in text
    if fig.variant is not None:  # named in the table or the pivot caption
        assert all(str(variant) in text for variant in variants)
    if fig.violins is not None:
        assert "violin strips" in render(fig, {"hdsearch": cells}, plot=True)


@pytest.mark.parametrize("name", list(FIGURES))
def test_figure_stdout_is_pinned(name, capsys):
    argv, expected = PINNED[name]
    assert main(argv.split()) == 0
    assert capsys.readouterr().out == expected


#: command -> (argv, stdout at the parent commit).
PINNED = {
    "fig9": (
        "fig9 --scale unit --services hdsearch router --duration-us 60000",
        """\
Fig. 9 — saturation throughput
 service  paper QPS  measured QPS  ratio
--------  ---------  ------------  -----
hdsearch      11500          6633  0.58x
  router      12000         13567  1.13x
""",
    ),
    "fig10": (
        "fig10 --scale unit --services router setalgebra --loads 100 1000 --min-queries 20 --plot",
        """\
Fig. 10 — end-to-end latency across loads
   service  load QPS  p50 us  p95 us  p99 us  max us  queries
----------  --------  ------  ------  ------  ------  -------
    router       100     432     491     522     569       67
    router      1000     415     492     549     591      476
setalgebra       100     737     944    1045    1081       67
setalgebra      1000     684     914    1040    1190      476
router: median(100 QPS) / median(1K QPS) = 1.04x
setalgebra: median(100 QPS) / median(1K QPS) = 1.08x

router end-to-end latency (violin strips):
 @100 QPS |--------======#==========-----------------------| p50=432us p99=498us
@1000 QPS |-------=====#==========-------------------------| p50=415us p99=546us

setalgebra end-to-end latency (violin strips):
 @100 QPS |---------------========#=========---------------| p50=737us p99=1026us
@1000 QPS |------------========#======---------------------| p50=684us p99=1026us
""",
    ),
    "syscalls": (
        "syscalls --scale unit --services hdsearch setalgebra --loads 100 1000 --min-queries 20",
        """\
Fig. 11 — hdsearch syscalls per query
    syscall  per query @100  per query @1000
-----------  --------------  ---------------
   mprotect               0                0
     openat               0                0
        brk            0.01             0.01
    sendmsg            3.00             3.01
epoll_pwait            7.84             4.33
      write            1.00             1.00
       read            0.99             0.93
    recvmsg            4.00             4.14
      close               0                0
      futex            21.0             8.53
      clone               0                0
       mmap               0                0
     munmap               0                0

Fig. 13 — setalgebra syscalls per query
    syscall  per query @100  per query @1000
-----------  --------------  ---------------
   mprotect               0                0
     openat               0                0
        brk            0.01             0.01
    sendmsg            3.00             3.01
epoll_pwait            7.48             4.26
      write            1.00             1.00
       read            0.97             0.92
    recvmsg            3.94             4.10
      close               0                0
      futex            21.9             8.57
      clone               0                0
       mmap               0                0
     munmap               0                0

""",
    ),
    "overheads": (
        "overheads --scale unit --services recommend router --loads 300 --min-queries 20 --plot",
        """\
Fig. 18 — recommend OS overhead latencies (µs)
  category  p50 @300  p99 @300
----------  --------  --------
   hardirq      1.59      4.66
    net_tx      2.14      7.06
    net_rx      4.02      16.8
     block      0.82      2.02
     sched      1.19      4.15
       rcu      0.91      2.47
active_exe      86.6      86.6
       net     102.7     122.1
TCP retransmissions per window: {300: 0}

recommend @300 QPS (violin strips):
   hardirq |--------------------=====#=====-----------------| p50=2us p99=4us
    net_tx |----------------------======#====---------------| p50=2us p99=7us
    net_rx |--------------=====#======----------------------| p50=4us p99=16us
     block |---------------------====#=====-----------------| p50=1us p99=2us
     sched |--------------------=====#=====-----------------| p50=1us p99=4us
       rcu |---------------====#=====-----------------------| p50=1us p99=2us
active_exe |-----------------------------------------------#| p50=87us p99=87us
       net |-------------=======#======---------------------| p50=103us p99=119us

Fig. 16 — router OS overhead latencies (µs)
  category  p50 @300  p99 @300
----------  --------  --------
   hardirq      1.76      4.78
    net_tx      2.15      6.91
    net_rx      3.99      12.1
     block      0.79      2.02
     sched      1.20      3.79
       rcu      0.85      2.10
active_exe      11.6      86.6
       net      62.1     118.9
TCP retransmissions per window: {300: 0}

router @300 QPS (violin strips):
   hardirq |------------------=======#=====-----------------| p50=2us p99=4us
    net_tx |----------------======#======-------------------| p50=2us p99=7us
    net_rx |------------------=======#=======---------------| p50=4us p99=12us
     block |-------------------====#=====-------------------| p50=1us p99=2us
     sched |--------------------====#=====------------------| p50=1us p99=4us
       rcu |---------------------=====#======---------------| p50=1us p99=2us
active_exe |----------------#========================-------| p50=12us p99=87us
       net |----======#=========================------------| p50=62us p99=116us

""",
    ),
    "fig19": (
        "fig19 --scale unit --services router --loads 100 1000 --min-queries 20",
        """\
Fig. 19 — context switches and HITM
service  load QPS   CS/s  HITM/s  HITM/CS
-------  --------  -----  ------  -------
 router       100   7380   14736     2.00
 router      1000  17364   46416     2.67
""",
    ),
    "block-poll": (
        "block-poll --scale unit --service hdsearch --loads 100 1000 --min-queries 20",
        """\
Ablation — blocking vs polling (hdsearch)
    mode  load QPS  p50 us  p99 us  futex/query  epoll/query
--------  --------  ------  ------  -----------  -----------
blocking       100     900    1015         21.0         7.80
blocking      1000     814    1087         8.50         4.30
 polling       100     822    1011         20.9        1,145
 polling      1000     742    1048         8.60        163.5
""",
    ),
    "inline-dispatch": (
        "inline-dispatch --scale unit --service setalgebra --loads 100 1000 --min-queries 20",
        """\
Ablation — in-line vs dispatch (setalgebra)
    mode  load QPS  p50 us  p99 us  mid-tier p99 us  queries
--------  --------  ------  ------  ---------------  -------
dispatch       100     737    1045              317       67
dispatch      1000     684    1040              346      476
  inline       100     632     999              245       67
  inline      1000     604     940              250      476
""",
    ),
    "poolsize": (
        "poolsize --scale unit --service hdsearch --qps 1000 --min-queries 20",
        """\
Ablation — worker pool sweep (hdsearch @ 1000 QPS)
workers  p50 us  p99 us  futex/query  HITM/s  queries
-------  ------  ------  -----------  ------  -------
      1     796    1075         7.00   20210      476
      2     825    1090         7.60   22492      476
      4     814    1087         8.50   25432      476
      8     753    1050         9.60   30012      476
     16     722    1010         14.5   42242      476
     32     681     991         24.5   67634      476
""",
    ),
    "adaptive": (
        "adaptive --scale unit --service recommend --loads 100 1000 --min-queries 20",
        """\
Extension — adaptive vs static reception (recommend)
 variant  load QPS  p50 us  p99 us  epoll/query  queries
--------  --------  ------  ------  -----------  -------
blocking       100     812     941         7.60       67
blocking      1000     736     978         4.30      476
 polling       100     744     888        1,145       67
 polling      1000     664     922        163.4      476
adaptive       100     732     884        1,145       67
adaptive      1000     667     896        163.4      476
""",
    ),
    "sweep": (
        "sweep --scale unit --service router --min-queries 20",
        """\
Load sweep — router
load QPS  p50 us  p95 us  p99 us  Active-Exe p99  queries
--------  ------  ------  ------  --------------  -------
     120     435     496     513            86.6       71
     600     419     499     535            86.6      273
    1800     405     519     587            86.6      885
    3600     405     543     629            92.3     1784
    6000     410     570     641           103.8     2931
    8400     428     646     760           111.9     4143
   10200     465     801     979            94.8     5018
   11400     525     988    1223            86.6     5582
p99 vs load: ▁▁▁▂▂▃▅█
knee (p99 > 2x floor) at ~11400 QPS
""",
    ),
}
