"""SharedCSRGraph: zero-copy round trips, epochs, and leak hygiene."""

import pickle

import numpy as np
import pytest

from repro.errors import GraphError
from repro.graph import CSRGraph, DiGraph
from repro.graph.csr import SHM_LAYOUT
from repro.parallel.shm import SharedCSRGraph, ShmGraphDescriptor

try:  # the leak checks read /dev/shm directly (Linux CI and dev boxes)
    from pathlib import Path

    SHM_DIR = Path("/dev/shm")
    HAVE_SHM_DIR = SHM_DIR.is_dir()
except OSError:  # pragma: no cover - exotic platforms
    HAVE_SHM_DIR = False


def segment_names(base_name: str) -> list[str]:
    """Names under /dev/shm belonging to one SharedCSRGraph instance."""
    if not HAVE_SHM_DIR:  # pragma: no cover - exercised on Linux only
        pytest.skip("no /dev/shm to audit")
    return sorted(p.name for p in SHM_DIR.iterdir() if p.name.startswith(base_name))


@pytest.fixture()
def csr(tiny_wiki) -> CSRGraph:
    return CSRGraph.from_digraph(tiny_wiki)


class TestRoundTrip:
    def test_attach_reproduces_graph_bitwise(self, csr):
        with SharedCSRGraph.create(csr) as owner:
            attachment = SharedCSRGraph.attach(owner.descriptor)
            try:
                shared = attachment.graph
                assert shared.num_nodes == csr.num_nodes
                assert shared.num_edges == csr.num_edges
                for field, _ in SHM_LAYOUT:
                    np.testing.assert_array_equal(
                        getattr(shared, field), getattr(csr, field)
                    )
            finally:
                attachment.close()

    def test_attached_arrays_are_views_not_copies(self, csr):
        """Zero-copy: the mapped arrays own no data (their base is the shm
        buffer), so attach cost is O(1) in graph size."""
        with SharedCSRGraph.create(csr) as owner:
            attachment = SharedCSRGraph.attach(owner.descriptor)
            try:
                for field, _ in SHM_LAYOUT:
                    assert not getattr(attachment.graph, field).flags.owndata
            finally:
                attachment.close()

    def test_owner_side_graph_matches(self, csr):
        with SharedCSRGraph.create(csr) as owner:
            np.testing.assert_array_equal(owner.graph.in_indptr, csr.in_indptr)

    def test_descriptor_is_picklable(self, csr):
        with SharedCSRGraph.create(csr) as owner:
            descriptor = pickle.loads(pickle.dumps(owner.descriptor))
            assert descriptor == owner.descriptor
            assert descriptor.data_name.endswith("-g0")

    def test_empty_graph_round_trips(self):
        csr = CSRGraph.from_digraph(DiGraph(3))
        with SharedCSRGraph.create(csr) as owner:
            attachment = SharedCSRGraph.attach(owner.descriptor)
            try:
                assert attachment.graph.num_edges == 0
                assert attachment.graph.num_nodes == 3
            finally:
                attachment.close()


class TestEpochs:
    def test_publish_bumps_generation_counter(self, csr, tiny_wiki):
        with SharedCSRGraph.create(csr) as owner:
            assert owner.current_epoch() == 0
            mutated = tiny_wiki.copy()
            mutated.remove_edge(*next(iter(mutated.edges())))
            assert owner.publish(CSRGraph.from_digraph(mutated)) == 1
            assert owner.current_epoch() == 1

    def test_old_generation_serves_until_released(self, csr, tiny_wiki):
        with SharedCSRGraph.create(csr) as owner:
            old_descriptor = owner.descriptor
            attachment = SharedCSRGraph.attach(old_descriptor)
            try:
                before = attachment.graph.in_indptr.copy()
                owner.publish(CSRGraph.from_digraph(tiny_wiki))
                # the old mapping still reads the old epoch's bytes
                np.testing.assert_array_equal(attachment.graph.in_indptr, before)
            finally:
                attachment.close()
            owner.release_epoch(0)
            with pytest.raises(FileNotFoundError):
                SharedCSRGraph.attach(old_descriptor)

    def test_cannot_release_live_epoch(self, csr):
        with SharedCSRGraph.create(csr) as owner:
            with pytest.raises(GraphError):
                owner.release_epoch(owner.current_epoch())

    def test_attachment_cannot_publish(self, csr):
        with SharedCSRGraph.create(csr) as owner:
            attachment = SharedCSRGraph.attach(owner.descriptor)
            try:
                with pytest.raises(GraphError):
                    attachment.publish(csr)
            finally:
                attachment.close()


class TestLeakHygiene:
    def test_close_unlinks_every_segment(self, csr, tiny_wiki):
        owner = SharedCSRGraph.create(csr)
        owner.publish(CSRGraph.from_digraph(tiny_wiki))  # two live generations
        base = owner.base_name
        assert segment_names(base) == [f"{base}-g0", f"{base}-g1"]
        owner.close()
        assert segment_names(base) == []

    def test_close_is_idempotent(self, csr):
        owner = SharedCSRGraph.create(csr)
        owner.close()
        owner.close()

    def test_exception_path_unlinks(self, csr):
        base = None
        try:
            with SharedCSRGraph.create(csr) as owner:
                base = owner.base_name
                assert segment_names(base) == [f"{base}-g0"]
                raise RuntimeError("simulated serving failure")
        except RuntimeError:
            pass
        assert segment_names(base) == []

    def test_finalizer_unlinks_without_close(self, csr):
        """Dropping the last reference (no close call) must not leak."""
        owner = SharedCSRGraph.create(csr)
        base = owner.base_name
        assert segment_names(base)
        del owner
        import gc

        gc.collect()
        assert segment_names(base) == []

    def test_unlink_survives_pinned_views(self, csr):
        """A caller still holding array views cannot stop the unlink.

        (The pinned view itself is dead after close — reading it would be
        undefined behaviour — but leak hygiene must not depend on callers
        dropping every reference first.)"""
        owner = SharedCSRGraph.create(csr)
        base = owner.base_name
        pinned = owner.graph.out_indptr  # noqa: F841 - held across close
        owner.close()
        assert segment_names(base) == []


class TestDescriptor:
    def test_data_name_derivation(self):
        descriptor = ShmGraphDescriptor("base", 7, 10, 20)
        assert descriptor.data_name == "base-g7"
