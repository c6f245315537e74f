"""Unit tests for seeded RNG streams."""

from repro.sim import RandomStreams


class TestRandomStreams:
    def test_same_seed_same_draws(self):
        a = RandomStreams(42).stream("jobs").random(10)
        b = RandomStreams(42).stream("jobs").random(10)
        assert (a == b).all()

    def test_different_names_are_independent(self):
        streams = RandomStreams(42)
        a = streams.stream("jobs").random(10)
        b = streams.stream("arrivals").random(10)
        assert not (a == b).all()

    def test_adding_a_stream_does_not_perturb_others(self):
        plain = RandomStreams(7)
        first = plain.stream("a").random(5)

        interleaved = RandomStreams(7)
        interleaved.stream("new-consumer").random(100)  # extra consumer
        second = interleaved.stream("a").random(5)
        assert (first == second).all()

    def test_stream_is_cached(self):
        streams = RandomStreams(1)
        assert streams.stream("x") is streams.stream("x")

    def test_spawn_children_are_independent(self):
        parent = RandomStreams(3)
        child_a = parent.spawn("a").stream("s").random(5)
        child_b = parent.spawn("b").stream("s").random(5)
        parent_s = parent.stream("s").random(5)
        assert not (child_a == child_b).all()
        assert not (child_a == parent_s).all()

