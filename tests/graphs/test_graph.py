"""Unit tests for the core graph data structures."""

import numpy as np
import pytest

from repro.graphs import CSRMatrix, CSCMatrix, Graph


def triangle_graph(feature_length=4):
    edges = [(0, 1), (1, 2), (2, 0)]
    return Graph.from_edge_list(edges, 3, feature_length=feature_length, name="triangle")


class TestCSRMatrix:
    def test_from_edges_basic(self):
        csr = CSRMatrix.from_edges([(0, 1), (0, 2), (1, 2)], num_rows=3)
        assert csr.nnz == 3
        assert list(csr.row(0)) == [1, 2]
        assert list(csr.row(1)) == [2]
        assert list(csr.row(2)) == []

    def test_from_edges_deduplicates(self):
        csr = CSRMatrix.from_edges([(0, 1), (0, 1), (0, 1)], num_rows=2)
        assert csr.nnz == 1

    def test_from_edges_keeps_duplicates_when_asked(self):
        csr = CSRMatrix.from_edges([(0, 1), (0, 1)], num_rows=2, deduplicate=False)
        assert csr.nnz == 2

    def test_empty_matrix(self):
        csr = CSRMatrix.from_edges([], num_rows=4)
        assert csr.nnz == 0
        assert list(csr.degrees()) == [0, 0, 0, 0]

    def test_degrees(self):
        csr = CSRMatrix.from_edges([(0, 1), (0, 2), (2, 0)], num_rows=3)
        assert list(csr.degrees()) == [2, 0, 1]
        assert csr.degree(0) == 2

    def test_transpose_roundtrip(self):
        csr = CSRMatrix.from_edges([(0, 1), (0, 2), (1, 2), (2, 0)], num_rows=3)
        double_t = csr.transpose().transpose()
        np.testing.assert_array_equal(csr.to_dense(), double_t.to_dense())

    def test_transpose_is_dense_transpose(self):
        csr = CSRMatrix.from_edges([(0, 1), (1, 2), (2, 0), (2, 1)], num_rows=3)
        np.testing.assert_array_equal(csr.transpose().to_dense(), csr.to_dense().T)

    def test_invalid_indices_rejected(self):
        with pytest.raises(ValueError):
            CSRMatrix.from_edges([(0, 5)], num_rows=3)
        with pytest.raises(ValueError):
            CSRMatrix.from_edges([(7, 0)], num_rows=3)

    def test_invalid_indptr_rejected(self):
        with pytest.raises(ValueError):
            CSRMatrix(np.array([0, 2, 1]), np.array([0, 1]), num_cols=2)

    def test_rectangular_matrix(self):
        csr = CSRMatrix.from_edges([(0, 3), (1, 4)], num_rows=2, num_cols=5)
        assert csr.num_rows == 2
        assert csr.num_cols == 5
        assert csr.to_dense().shape == (2, 5)


class TestCSCMatrix:
    def test_csc_column_is_in_neighbors(self):
        csr = CSRMatrix.from_edges([(0, 2), (1, 2), (2, 0)], num_rows=3)
        csc = CSCMatrix.from_csr(csr)
        assert sorted(csc.column(2)) == [0, 1]
        assert list(csc.column(0)) == [2]
        assert list(csc.column(1)) == []

    def test_in_degrees_sum_to_edges(self):
        csr = CSRMatrix.from_edges([(0, 1), (0, 2), (1, 2), (2, 1)], num_rows=3)
        csc = CSCMatrix.from_csr(csr)
        assert csc.in_degrees().sum() == csr.nnz

    def test_dense_views_are_transposes(self):
        csr = CSRMatrix.from_edges([(0, 1), (1, 0), (2, 1)], num_rows=3)
        csc = CSCMatrix.from_csr(csr)
        np.testing.assert_array_equal(csc.to_dense(), csr.to_dense())


class TestGraph:
    def test_from_edge_list_symmetrises(self):
        g = triangle_graph()
        assert g.num_vertices == 3
        assert g.num_edges == 6  # each undirected edge stored twice
        assert sorted(g.neighbors(0)) == [1, 2]

    def test_directed_edge_list(self):
        g = Graph.from_edge_list([(0, 1)], 2, undirected=False, feature_length=2)
        assert g.num_edges == 1
        assert list(g.neighbors(0)) == [1]
        assert list(g.neighbors(1)) == []

    def test_feature_shape_validation(self):
        csr = CSRMatrix.from_edges([(0, 1)], num_rows=2)
        with pytest.raises(ValueError):
            Graph.from_csr(csr, np.zeros((3, 4)))
        with pytest.raises(ValueError):
            Graph.from_csr(csr, np.zeros(2))

    def test_in_neighbors_match_neighbors_for_undirected(self):
        g = triangle_graph()
        for v in range(g.num_vertices):
            assert sorted(g.in_neighbors(v)) == sorted(g.neighbors(v))

    def test_with_features_shares_structure(self):
        g = triangle_graph()
        new = g.with_features(np.ones((3, 2)))
        assert new.num_edges == g.num_edges
        assert new.feature_length == 2

    def test_adjacency_dense_symmetric(self):
        g = triangle_graph()
        dense = g.adjacency_dense()
        np.testing.assert_array_equal(dense, dense.T)
        assert dense.sum() == g.num_edges

