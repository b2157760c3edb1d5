"""Once-per-group lowering for the compiled backend.

A *group* is a set of candidate configurations sharing both the
schedule key (identical static schedule, availability patterns and
static response times) and the DYN structure key (identical FrameID
assignment and bus-speed parameters, hence identical hp/lf interference
rows and transmission times).  The lowering follows that split:

* :class:`StructureTemplate` packs the context's int-row structure
  record (``AnalysisContext._structure``, the rows the Python fix
  point runs on) once per structure key: the plan blob's per-activity
  and component sections;
* :class:`GroupPlan` adds the per-schedule rest: ``w0`` (the static
  response times), the availability patterns' own
  :class:`~repro.analysis.availability.InstantTables` and the staircase
  verdict.

The per-lane scalars (caps, cycle geometry) are resolved per run by
:func:`repro.analysis.backend.native.run_group_native`, which packs the
plan into the int64 blob the C kernels parse.  A pure-DYN sweep is one
group end to end; an ST-heavy sweep is a fresh *singleton* group per
cycle length, all sharing one template, so each group costs only its
``w0`` and availability tables.
"""

from __future__ import annotations

from typing import Dict, List


class StructureTemplate:
    """The plan blob's structure-key-invariant sections.

    Packed straight from the int rows of one structure record of the
    context (``AnalysisContext._structure``: FrameID assignment and bus
    speed) and cached on that record, so an ST-heavy sweep's singleton
    groups pay the packing once per FrameID assignment instead of once
    per cycle length.  The record's rows and activity order are the
    blob's: ``acts`` is the per-activity int section, ``comps`` the
    component section and ``n_rows``, ``n_acts``, ``n_comps`` and
    ``fault_rows`` the header's structure-side fields (see
    :func:`repro.analysis.backend.native.plan_blob`).
    """

    __slots__ = (
        "n_rows", "n_acts", "n_comps", "fault_rows", "acts", "comps",
        "packed_acts",
    )

    def __init__(self, structure):
        interference = structure.interference

        def blob_rows(plain, anc):
            """``(row, period, is_ancestor, size)`` in row order; an
            ancestor reads the own jitter, so its jitter row is 0."""
            merged = [(r, interference[r][0], 0, interference[r][2])
                      for r in plain]
            merged += [(r, period, 1, size) for r, period, size in anc]
            merged.sort()
            return [(0 if a else r, p, a, size) for r, p, a, size in merged]

        def reads(act):
            if act[0]:
                return act[9] + tuple(e[0] for e in act[10])
            return act[10] + act[11] + tuple(e[0] for e in act[12] + act[13])

        # The blob's dependency rows list *every* reader of an activity's
        # jitter (the record keeps only the same-component ones the
        # Python fix point needs), readers in slot order: by row.
        deps: Dict[int, List[int]] = {}
        for pos, act in sorted(
            enumerate(structure.acts), key=lambda item: item[1][1]
        ):
            for r in reads(act):
                deps.setdefault(r, []).append(pos)
        acts: List[int] = []
        for act in structure.acts:
            kind, row, own_sensitive = act[:3]
            readers = deps.get(row, ())
            acts += [kind, row, int(own_sensitive), len(readers), *readers]
            if kind == 0:
                (ct, sender, lower, frame_id, largest, max_adjusted, hp, lf,
                 hp_anc, lf_anc) = act[4:]
                hp = blob_rows(hp, hp_anc)
                # Under the "bound" fill strategy lf rows with adjusted
                # size <= 0 add nothing to ``lf_total`` or ``lf_useful``,
                # so they are dropped (``max_adjusted`` still covers
                # every lf row, as the k-error cost in the oracle does).
                lf = [r for r in blob_rows(lf, lf_anc) if r[3] > 0]
                acts += [sender, ct, lower, frame_id, largest, max_adjusted,
                         len(hp), len(lf)]
                for jrow, period, anc, _ in hp:
                    acts += [period, anc, jrow]
                for jrow, period, anc, adjusted in lf:
                    acts += [period, anc, jrow, adjusted]
            else:
                release, preds, wcet, av_index, plain, anc = act[5:]
                ints = blob_rows(plain, anc)
                acts += [release, wcet, av_index, len(preds), len(ints),
                         *preds]
                for jrow, period, anc, c in ints:
                    acts += [period, c, anc, jrow]
        self.n_rows = structure.n_rows
        self.n_acts = len(structure.acts)
        self.n_comps = len(structure.components)
        self.fault_rows = structure.fault_rows
        self.acts = acts
        self.comps = [x for comp in structure.components for x in comp]
        #: ``acts`` as an ``array('q')``, packed by the first plan blob.
        self.packed_acts = None


class GroupPlan:
    """All group-invariant state of one batched fix point.

    Built once per (schedule key, DYN structure key) and cached on the
    context.  The activity lowering is the structure record's shared
    :class:`StructureTemplate` (built here on the record's first
    group); only ``w0``, the availability tables and the staircase
    verdict are per group.
    """

    __slots__ = (
        "structure", "template", "arts", "w0", "avs", "stair", "native_state",
    )

    def __init__(self, structure, arts):
        template = structure.template
        if template is None:
            template = structure.template = StructureTemplate(structure)
        self.structure = structure
        self.template = template
        #: The group's schedule artifacts, fetched once by the caller:
        #: the kernels and the oracle delegation read them from here
        #: instead of re-fetching (a sweep wider than the schedule cache
        #: would replay them again).
        self.arts = arts
        #: The initial response times by row (the fix point's start).
        self.w0 = [*arts.static_wcrt.values(), *structure.tail]
        #: The :class:`~repro.analysis.availability.InstantTables` of
        #: ``structure.av_nodes``, in order.
        self.avs = [
            arts.availability[node].instant_advance_tables()
            for node in structure.av_nodes
        ]
        #: Structural safety verdict: every pattern has slack, so every
        #: FPS activity has a staircase to run on.  ``False`` (a fully
        #: busy node) sends every batch of this group to the Python
        #: oracle.
        self.stair = all(av.slack_per_period for av in self.avs)
        #: The parsed C plan capsule; ``None`` until the first batch of
        #: this group reaches the C kernels.
        self.native_state = None
