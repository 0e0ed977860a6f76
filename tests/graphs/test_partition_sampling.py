"""Tests for neighbour sampling."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.graphs import (
    NeighborSampler,
    SamplingConfig,
    erdos_renyi_graph,
    power_law_graph,
    sample_graph,
)


def small_graph(seed=0):
    return erdos_renyi_graph(32, 128, feature_length=8, seed=seed)


class TestSampling:
    def test_disabled_sampling_is_identity(self):
        g = small_graph()
        cfg = SamplingConfig()
        assert not cfg.enabled
        sampled = sample_graph(g, cfg)
        assert sampled is g

    def test_max_neighbors_cap(self):
        g = power_law_graph(64, 1024, feature_length=4, seed=1)
        sampler = NeighborSampler(SamplingConfig(max_neighbors=3, seed=0))
        for v in range(g.num_vertices):
            assert len(sampler.sample_neighbors(g.in_neighbors(v))) <= 3

    def test_sampling_factor_reduces_edges(self):
        g = power_law_graph(64, 1024, feature_length=4, seed=2)
        sampled = sample_graph(g, SamplingConfig(sampling_factor=4, seed=0))
        assert sampled.num_edges < g.num_edges
        # at least one neighbour is always kept per vertex with neighbours
        for v in range(g.num_vertices):
            if g.csc.in_degree(v) > 0:
                assert sampled.csc.in_degree(v) >= 1

    def test_sampled_neighbors_are_subset(self):
        g = small_graph(seed=4)
        sampler = NeighborSampler(SamplingConfig(max_neighbors=2, seed=1))
        for v in range(g.num_vertices):
            original = set(g.in_neighbors(v).tolist())
            sampled = set(sampler.sample_neighbors(g.in_neighbors(v)).tolist())
            assert sampled <= original

    def test_strided_strategy_deterministic(self):
        g = small_graph(seed=5)
        cfg = SamplingConfig(max_neighbors=2, strategy="strided")
        s1 = NeighborSampler(cfg).sample_graph(g)
        s2 = NeighborSampler(cfg).sample_graph(g)
        np.testing.assert_array_equal(s1.csr.indices, s2.csr.indices)

    def test_sampled_graph_shares_features(self):
        g = small_graph()
        sampled = sample_graph(g, SamplingConfig(max_neighbors=1, seed=0))
        assert sampled.features is g.features

    def test_invalid_configs(self):
        with pytest.raises(ValueError):
            SamplingConfig(sampling_factor=0)
        with pytest.raises(ValueError):
            SamplingConfig(max_neighbors=0)
        with pytest.raises(ValueError):
            SamplingConfig(strategy="bogus")

    def test_sampled_degree_map(self):
        g = small_graph(seed=6)
        sampler = NeighborSampler(SamplingConfig(max_neighbors=2, seed=0))
        degmap = sampler.sampled_degree_map(g)
        assert set(degmap) == set(range(g.num_vertices))
        assert all(0 <= d <= 2 for d in degmap.values())

    @settings(max_examples=20, deadline=None)
    @given(factor=st.integers(1, 8), seed=st.integers(0, 3))
    def test_property_sampling_never_increases_edges(self, factor, seed):
        g = power_law_graph(48, 512, feature_length=4, seed=seed)
        sampled = sample_graph(g, SamplingConfig(sampling_factor=factor, seed=seed))
        assert sampled.num_edges <= g.num_edges
