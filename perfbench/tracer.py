"""Outside-in tracing of dcp: spans around calls into each module's public functions.

Nothing inside ``src/dcp`` knows about this tracer. It swaps a timing wrapper
into the namespace where each caller looks the function up. ``trainer``
imports ``kmeans_assign`` by name, so the wrapper has to be installed on
``dcp.trainer``; one installed on ``dcp.pseudo_label`` would never be
called. Every span records its calls, its inclusive time and its self time:
the span's duration minus the time its wrapped children took. GC pauses are
taken from ``gc.callbacks`` and graph nodes are counted by wrapping
``Tensor._node``.
"""

from __future__ import annotations

import contextlib
import functools
import gc
from collections import Counter
from dataclasses import dataclass
from time import perf_counter

TRAIN = "trainer.train"
TRAIN_STEP = "trainer.train_step"


@dataclass(frozen=True)
class Site:
    """Where a wrapper goes: ``owner.attr`` is the name a caller resolves."""

    owner: object
    attr: str
    span: str


def default_sites(dcp) -> list[Site]:
    """The name each caller in dcp resolves, for every function the benchmark times."""
    tr = dcp.trainer
    sites = [
        Site(tr, "train", TRAIN),
        Site(tr, "train_step", TRAIN_STEP),
        Site(tr, "apply_sgd_update", "trainer.apply_sgd_update"),
        Site(tr, "evaluate", "trainer.evaluate"),
        Site(tr, "kmeans_assign", "pseudo_label.kmeans_assign"),
        Site(tr, "select_high_confidence", "pseudo_label.select_high_confidence"),
        Site(tr, "branch_outputs", "networks.branch_outputs"),
        Site(dcp.networks, "forward", "networks.forward"),
        Site(dcp.datasets, "gen_blobs", "datasets.gen_blobs"),
        Site(dcp.verify, "run_gradcheck", "verify.run_gradcheck"),
        Site(dcp.tensor.Tensor, "backward", "tensor.backward"),
    ]
    for name in ("discriminator_loss", "generator_loss", "source_classification_loss"):
        sites.append(Site(dcp.losses, name, f"losses.{name}"))
    for name in (
        "compute_centroids",
        "update_centroids_ema",
        "centroid_centroid_matrix",
        "centroid_sample_matrix",
        "loss_cc",
        "loss_cs",
    ):
        sites.append(Site(dcp.centroids, name, f"centroids.{name}"))
    return sites


@dataclass
class SpanStats:
    calls: int = 0
    total: float = 0.0
    self_time: float = 0.0


class Tracer:
    """Spans, counts and GC pauses, split by whether ``train`` is running.

    Use :meth:`installed`: the wrappers patch module and class attributes
    that the whole process shares, so they must come off again.
    """

    def __init__(self, tensor_cls):
        self._tensor_cls = tensor_cls
        # (span name, inside train) -> stats
        self.stats: dict[tuple[str, bool], SpanStats] = {}
        self._stack: list[list] = []  # [span name, child seconds]
        self._active: Counter = Counter()
        self._backward_index = 0
        self._patches: list[tuple[object, str, object]] = []
        self._gc_start = 0.0
        self._gc_in_train = False
        self.nodes_in_step = 0
        self.steps = 0
        self.selected = 0
        self.target_rows = 0
        self.alignment_skipped = 0
        self.gc_collections = 0
        self.gc_pause = 0.0
        self.gc_max_pause = 0.0

    # -- install / uninstall -------------------------------------------------

    @contextlib.contextmanager
    def installed(self, sites: list[Site]):
        self._install(sites)
        try:
            yield self
        finally:
            self._uninstall()

    def _install(self, sites: list[Site]) -> None:
        for site in sites:
            raw = vars(site.owner)[site.attr]
            self._patch(site.owner, site.attr, raw, self._wrapper_for(site, raw))
        node = vars(self._tensor_cls)["_node"]
        self._patch(self._tensor_cls, "_node", node, classmethod(self._counting(node.__func__)))
        gc.callbacks.append(self._on_gc)

    def _uninstall(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    def _patch(self, owner, attr, raw, replacement) -> None:
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, replacement)

    def _wrapper_for(self, site: Site, raw):
        is_classmethod = isinstance(raw, classmethod)
        fn = raw.__func__ if is_classmethod else raw
        if site.span == "tensor.backward":
            wrapper = self._wrap(fn, self._backward_span)
        elif site.span == TRAIN_STEP:
            wrapper = self._wrap(fn, lambda: TRAIN_STEP, on_return=self._count_step)
        else:
            wrapper = self._wrap(fn, lambda: site.span)
        return classmethod(wrapper) if is_classmethod else wrapper

    # -- spans -----------------------------------------------------------------

    def _wrap(self, fn, span_name, on_return=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = span_name()
            frame = [name, 0.0]
            self._stack.append(frame)
            self._active[name] += 1
            if name == TRAIN_STEP:
                self._backward_index = 0
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                self._active[name] -= 1
                self._stack.pop()
                if self._stack:
                    self._stack[-1][1] += elapsed
                key = (name, self._active[TRAIN] > 0)
                stats = self.stats.get(key)
                if stats is None:
                    stats = self.stats[key] = SpanStats()
                stats.calls += 1
                stats.total += elapsed
                stats.self_time += elapsed - frame[1]
            if on_return is not None:
                on_return(args, result)
            return result

        return wrapper

    def _backward_span(self) -> str:
        # train_step calls backward twice: phase (e) for the discriminator,
        # then phase (f) for the main objective.
        if self._active[TRAIN_STEP] == 0:
            return "tensor.backward"
        index = self._backward_index
        self._backward_index += 1
        return ("tensor.backward.disc", "tensor.backward.main")[min(index, 1)]

    def _count_step(self, args, result) -> None:
        record, info = result
        target_batch = args[2]
        self.steps += 1
        self.selected += record.n_selected
        self.target_rows += target_batch.shape[0]
        self.alignment_skipped += bool(info.alignment_skipped)

    def _counting(self, node_fn):
        @functools.wraps(node_fn)
        def counted(cls, *args, **kwargs):
            if self._active[TRAIN_STEP]:
                self.nodes_in_step += 1
            return node_fn(cls, *args, **kwargs)

        return counted

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_in_train = self._active[TRAIN] > 0
            self._gc_start = perf_counter()
        elif self._gc_in_train:
            pause = perf_counter() - self._gc_start
            self.gc_collections += 1
            self.gc_pause += pause
            self.gc_max_pause = max(self.gc_max_pause, pause)

    # -- readout -----------------------------------------------------------------

    def span(self, name: str, in_train: bool | None = None) -> SpanStats:
        """Stats of one span name, inside training, outside it, or both (None)."""
        out = SpanStats()
        for (span_name, inside), stats in self.stats.items():
            if span_name == name and (in_train is None or inside == in_train):
                out.calls += stats.calls
                out.total += stats.total
                out.self_time += stats.self_time
        return out

    def zero_call_spans(self, names) -> list[str]:
        """The names among ``names`` that recorded no call at all."""
        return [name for name in names if self.span(name).calls == 0]
