from workloads import cpu_jiffies, steal_share


def test_steal_share_of_wanted_cpu_time():
    # (stolen, busy) jiffies: 10 stolen of 40 wanted
    assert steal_share((100, 200), (110, 230)) == 0.25
    assert steal_share((5, 5), (5, 9)) == 0.0  # nothing stolen
    assert steal_share((5, 5), (5, 5)) == 0.0  # all idle


def test_cpu_jiffies_reads_the_machine_counters():
    stolen, busy = cpu_jiffies()
    assert stolen >= 0 and busy > 0
