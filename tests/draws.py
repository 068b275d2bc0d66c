"""One randomized schedule at a time, for the tests that draw them singly:
the pipeline's ``draw_schedules`` of one (spec, seed)."""

from maars.schedgen import draw_schedules


def shuffle_schedule(taskset, spec, seed):
    return draw_schedules(taskset, [(spec, seed)])[0]


def aware_shuffle_schedule(taskset, spec, seed):
    return draw_schedules(taskset, [(spec, seed)], attack_aware=True)[0]
