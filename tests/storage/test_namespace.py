"""Unit tests for the volume-namespace layer.

The mapper is pure address arithmetic; these tests pin the layout
rules (back-to-back, declaration order), both translation directions,
the request-rebasing invariants and every bounds check.
"""

from typing import Sequence

import pytest

from repro.errors import StorageError
from repro.sim.request import IORequest
from repro.storage.namespace import NamespaceMapper, VolumeNamespace
from repro.traces.format import Trace


def to_local(ns: VolumeNamespace, global_lba: int) -> int:
    """Translate a global LBA back into ``ns``'s space."""
    if not (ns.base <= global_lba < ns.end):
        raise StorageError(f"global LBA {global_lba} outside volume {ns.name!r}")
    return global_lba - ns.base


def translate_request(mapper: NamespaceMapper, request: IORequest, volume_id: int) -> IORequest:
    """Rebase one volume-local request into the shared domain (the
    replay paths rebase whole columns through ``volume(...).base``)."""
    ns = mapper.volume(volume_id)
    if request.lba + request.nblocks > ns.logical_blocks:
        raise StorageError(f"request overruns volume {ns.name!r}")
    return IORequest(
        time=request.time,
        op=request.op,
        lba=ns.base + request.lba,
        nblocks=request.nblocks,
        fingerprints=request.fingerprints,
        req_id=request.req_id,
        volume_id=volume_id,
    )


def mapper_for_traces(traces: Sequence[Trace]) -> NamespaceMapper:
    """One volume per trace, sized to the trace's logical space."""
    return NamespaceMapper((t.name, t.logical_blocks) for t in traces)


class TestVolumeNamespace:
    def test_translation_round_trip(self):
        ns = VolumeNamespace(volume_id=1, name="mail/t1", logical_blocks=100, base=250)
        assert ns.end == 350
        for lba in (0, 57, 99):
            assert to_local(ns, ns.to_global(lba)) == lba
        assert ns.to_global(0) == 250
        assert ns.to_global(99) == 349

    def test_bounds_are_enforced(self):
        ns = VolumeNamespace(volume_id=0, name="v", logical_blocks=10, base=0)
        with pytest.raises(StorageError):
            ns.to_global(10)
        with pytest.raises(StorageError):
            ns.to_global(-1)
        with pytest.raises(StorageError):
            to_local(ns, 10)

    def test_invalid_construction(self):
        with pytest.raises(StorageError):
            VolumeNamespace(volume_id=-1, name="v", logical_blocks=1, base=0)
        with pytest.raises(StorageError):
            VolumeNamespace(volume_id=0, name="v", logical_blocks=0, base=0)
        with pytest.raises(StorageError):
            VolumeNamespace(volume_id=0, name="v", logical_blocks=1, base=-5)


class TestNamespaceMapper:
    def test_back_to_back_layout(self):
        mapper = NamespaceMapper([("a", 100), ("b", 50), ("c", 25)])
        assert len(mapper) == 3
        assert [ns.base for ns in mapper] == [0, 100, 150]
        assert mapper.total_logical_blocks == 175
        assert mapper.volume(1).name == "b"

    def test_single_volume_is_identity(self):
        """The N=1 mapper translates every LBA to itself -- the
        property that keeps classic replays bit-identical."""
        mapper = NamespaceMapper([("only", 512)])
        for lba in (0, 1, 255, 511):
            assert mapper.to_global(0, lba) == lba
            assert mapper.locate(lba) == (0, lba)

    def test_locate_reverse_lookup(self):
        mapper = NamespaceMapper([("a", 100), ("b", 50), ("c", 25)])
        assert mapper.locate(0) == (0, 0)
        assert mapper.locate(99) == (0, 99)
        assert mapper.locate(100) == (1, 0)
        assert mapper.locate(149) == (1, 49)
        assert mapper.locate(150) == (2, 0)
        assert mapper.locate(174) == (2, 24)
        with pytest.raises(StorageError):
            mapper.locate(175)
        with pytest.raises(StorageError):
            mapper.locate(-1)

    def test_round_trip_every_volume(self):
        mapper = NamespaceMapper([("a", 7), ("b", 3), ("c", 11)])
        for ns in mapper:
            for lba in range(ns.logical_blocks):
                g = mapper.to_global(ns.volume_id, lba)
                assert mapper.locate(g) == (ns.volume_id, lba)

    def test_unknown_volume_rejected(self):
        mapper = NamespaceMapper([("a", 10)])
        with pytest.raises(StorageError):
            mapper.volume(1)
        with pytest.raises(StorageError):
            mapper.to_global(-1, 0)

    def test_empty_mapper_rejected(self):
        with pytest.raises(StorageError):
            NamespaceMapper([])

    def test_translate_request_rebases_and_tags(self):
        mapper = NamespaceMapper([("a", 100), ("b", 50)])
        req = IORequest.write(time=1.0, lba=10, fingerprints=[7, 8], req_id=42)
        out = translate_request(mapper, req, 1)
        assert out.lba == 110
        assert out.volume_id == 1
        assert out.req_id == 42
        assert out.fingerprints == (7, 8)
        # the original request is untouched
        assert req.lba == 10 and req.volume_id == 0

    def test_translate_request_rejects_overrun(self):
        mapper = NamespaceMapper([("a", 100), ("b", 50)])
        req = IORequest.write(time=1.0, lba=49, fingerprints=[1, 2])
        with pytest.raises(StorageError):
            translate_request(mapper, req, 1)

    def test_for_traces(self):
        from repro.traces.format import TraceRecord
        from repro.sim.request import OpType

        traces = [
            Trace(
                name=f"t{i}",
                records=[
                    TraceRecord(
                        time=0.0, op=OpType.WRITE, lba=0, nblocks=1,
                        fingerprints=(1,),
                    )
                ],
                logical_blocks=64 * (i + 1),
                warmup_count=0,
            )
            for i in range(2)
        ]
        mapper = mapper_for_traces(traces)
        assert [ns.logical_blocks for ns in mapper] == [64, 128]
        assert mapper.total_logical_blocks == 192
