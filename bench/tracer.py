"""In-memory span tracer for a traced benchmark pass.

`Tracer.install` wraps the public functions of each `gdmopt` module at
the names the CLI and the benchmark call them by, so every call records
a span: layer-qualified name, start, end, parent span, and the table
(study) and level it ran for.  A layer's self time is its spans'
durations minus the time their direct child spans cover, so the self
times of all layers add up to the traced pass.
"""

import functools
import time

# Closures of a benchmark case that the library evaluates at quadrature points.
CASE_CLOSURES = ("y", "grad_y", "p", "grad_p", "u", "f", "y_d", "u_d", "f_b")


class Tracer:
    def __init__(self):
        # (name, start, end, parent index, table, level); end is None while open
        self.spans = []
        self.stack = []
        self.table = None
        self.level = None
        self.counts = {"mesh.cells": 0, "cases.closure_calls": 0,
                       "control.pdas_iters": 0, "control.reference_iters": 0,
                       "linalg.factor_nnz_max": 0, "linalg.factorizations_in_pdas": 0}

    def begin(self, name):
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.table, self.level])
        self.stack.append(len(self.spans) - 1)

    def end(self):
        self.spans[self.stack.pop()][2] = time.perf_counter()

    def inside(self, name):
        return any(self.spans[i][0] == name for i in self.stack)

    def wrap(self, name, fn, after=None):
        """fn recording a span per call; after(result) runs inside the span."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.begin(name)
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(result)
                return result
            finally:
                self.end()
        return traced

    # -- installation ------------------------------------------------------

    def install_linalg(self):
        """Wrap scipy's splu; call before gdmopt is imported."""
        import scipy.sparse.linalg as spla

        splu = spla.splu

        def factor(*args, **kwargs):
            in_pdas = self.inside("control.pdas")
            self.begin("linalg.factor")
            try:
                lu = splu(*args, **kwargs)
            finally:
                self.end()
            if in_pdas:
                self.counts["linalg.factorizations_in_pdas"] += 1
            # Counting L+U fill builds both factors; keep it out of the layers.
            self.begin("trace.fill")
            nnz = lu.L.nnz + lu.U.nnz
            self.end()
            self.counts["linalg.factor_nnz_max"] = max(self.counts["linalg.factor_nnz_max"], nnz)
            return lu

        spla.splu = functools.wraps(splu)(factor)

    def install(self, gdmopt):
        """Wrap the public functions of every gdmopt module."""
        cli = gdmopt.cli

        def count(key, value):
            self.counts[key] += value

        def mesh_built(mesh):
            count("mesh.cells", mesh.n_cells)

        def build_mesh(case, scheme, m, shift=0.0):
            # Diagnostics rows start with their mesh; tag the level here.
            self.level = m.bit_length() - 1
            return traced_build_mesh(case, scheme, m, shift=shift)

        traced_build_mesh = self.wrap("mesh.build", gdmopt.TestCase.build_mesh, mesh_built)
        gdmopt.TestCase.build_mesh = build_mesh
        problem = gdmopt.OptimalControlProblem
        problem.assembled = self.wrap("assembly.assemble", problem.assembled)

        def run_level(case, scheme, level, *args, **kwargs):
            self.level = level
            return traced_run_level(case, scheme, level, *args, **kwargs)

        traced_run_level = self.wrap("cli.level", cli.run_level)
        cli.run_level = run_level

        def get_case(name):
            case = real_get_case(name)
            for attr in CASE_CLOSURES:
                fn = getattr(case, attr)
                if fn is not None:
                    setattr(case, attr, self.wrap("cases.closure", fn, closure_called))
            return case

        def closure_called(result):
            count("cases.closure_calls", 1)

        real_get_case = gdmopt.get_case
        pdas = self.wrap("control.pdas", gdmopt.solve_kkt_pdas,
                         lambda sol: count("control.pdas_iters", sol.iterations))
        reference = self.wrap("control.reference", gdmopt.solve_kkt_reference,
                              lambda sol: count("control.reference_iters", sol.iterations))
        patches = {
            "get_case": get_case,
            "build_scheme": self.wrap("schemes.build", gdmopt.build_scheme),
            "solve_kkt_pdas": pdas,
            "solve_kkt_reference": reference,
            "postprocess": self.wrap("control.postprocess", gdmopt.postprocess),
            "compute_cd": self.wrap("gd_core.cd", gdmopt.compute_cd),
            "compute_wd": self.wrap("gd_core.wd", gdmopt.compute_wd),
            "compute_sd_upper": self.wrap("gd_core.sd", gdmopt.compute_sd_upper),
            "compute_errors": self.wrap("analysis.errors", gdmopt.compute_errors),
        }
        for name, fn in patches.items():
            setattr(gdmopt, name, fn)
            if hasattr(cli, name):
                setattr(cli, name, fn)

    # -- summaries ---------------------------------------------------------

    def self_times(self):
        """Per-span self time: duration minus direct children's durations."""
        own = [end - start for _, start, end, _, _, _ in self.spans]
        for _, start, end, parent, _, _ in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return own

    def layer_split(self, own):
        """Self seconds per span name, in total and per (table, level)."""
        total, per_level = {}, {}
        for (name, _, _, _, table, level), t in zip(self.spans, own):
            total[name] = total.get(name, 0.0) + t
            if table is not None and level is not None:
                split = per_level.setdefault(f"{table}/level{level}", {})
                split[name] = split.get(name, 0.0) + t
        return total, per_level

    def metrics(self):
        """Per-layer metrics of the traced pass, and its per-level split.

        run.py adds trace.overhead_s, the traced minus the untraced
        pass time, because only it sees both passes.
        """
        own = self.self_times()
        total, per_level = self.layer_split(own)

        def secs(*names):
            return sum(total.get(n, 0.0) for n in names)

        c = self.counts
        factorizations = sum(1 for s in self.spans if s[0] == "linalg.factor")
        iters = c["control.pdas_iters"]
        pdas_s = secs("control.pdas")
        level_times = {key: sum(split.values()) for key, split in per_level.items()}
        by_table = {}
        for key, t in level_times.items():
            table = key.rsplit("/", 1)[0]
            by_table.setdefault(table, []).append(t)
        longest = sum(max(ts) for ts in by_table.values())
        return {
            "mesh.build_s": (secs("mesh.build"), "s"),
            "mesh.cells": (c["mesh.cells"], "count"),
            "schemes.build_s": (secs("schemes.build"), "s"),
            "assembly.assemble_s": (secs("assembly.assemble"), "s"),
            "control.pdas_s": (pdas_s, "s"),
            "control.pdas_iters": (iters, "count"),
            "control.pdas_s_per_iter": (pdas_s / iters if iters else 0.0, "s"),
            "control.postprocess_s": (secs("control.postprocess"), "s"),
            "control.reference_s": (secs("control.reference"), "s"),
            "control.reference_iters": (c["control.reference_iters"], "count"),
            "linalg.factorizations": (factorizations, "count"),
            "linalg.factor_s": (secs("linalg.factor"), "s"),
            "linalg.factor_nnz_max": (c["linalg.factor_nnz_max"], "count"),
            "linalg.factorizations_per_pdas_iter": (
                c["linalg.factorizations_in_pdas"] / iters if iters else 0.0, "ratio"),
            "gd_core.cd_s": (secs("gd_core.cd"), "s"),
            "gd_core.wd_s": (secs("gd_core.wd"), "s"),
            "gd_core.sd_s": (secs("gd_core.sd"), "s"),
            "cases.closure_s": (secs("cases.closure"), "s"),
            "cases.closure_calls": (c["cases.closure_calls"], "count"),
            "analysis.errors_s": (secs("analysis.errors"), "s"),
            "cli.self_s": (secs("cli.pass", "cli.level", "cli.table"), "s"),
            "cli.thread_ideal_speedup": (
                sum(level_times.values()) / longest if longest else 1.0, "ratio"),
            "trace.self_s": (secs("trace.fill"), "s"),
        }, per_level
