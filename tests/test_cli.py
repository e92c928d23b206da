import json

import numpy as np
import pytest

from mnpspr.cli import ConfigError, RunConfig, main, report_version_and_provenance, run, write_csv
from mnpspr.spectral import mnp_spectra, np_spectrum
from mnpspr.sphharm import sh_degrees

SPHERE8 = {"sphere": 1.0, "L_quad": 8}
# rho = 1 + 0.05 Re Y_2^0
PERT_RADIUS = [[0, 0, float(np.sqrt(4.0 * np.pi)), 0.0], [2, 0, 0.05, 0.0]]


def run_cli(tmp_path, config, name="cfg.json", extra=()):
    cfg = tmp_path / name
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out"
    out.mkdir(exist_ok=True)
    code = main(["--config", str(cfg), "--out", str(out), *extra])
    return code, out


def read_csv_body(path):
    lines = path.read_text().splitlines()
    return [l for l in lines if not l.startswith("# timestamp:")]


def cell(x):
    """One CSV cell as the artifacts write it, one call per cell: the writer's oracle."""
    if isinstance(x, float):
        return f"{x:.12e}"
    if isinstance(x, complex):
        return f"{x.real:.12e}{x.imag:+.12e}j"
    return str(x)


def test_write_csv_matches_per_cell_format(tmp_path):
    """Rows of str, int, float, complex and bool cells, numpy scalars and
    special values included, and a column whose type changes between rows."""
    nan, inf = float("nan"), float("inf")
    rows = [
        ("a", 1, 0.5, 1 - 2j, True),
        ("b,c", -3, -0.0, complex(-0.0, 0.0), False),
        ("d", np.int64(7), np.float64(1e-300), np.complex128(3 + 4j), np.bool_(True)),
        ("e", 2.5, nan, complex(inf, -inf), 1),
        ("f", np.float32(0.1), inf, np.complex64(1 + 1j), "x"),
        ("g", 10**20, -1.25e308, 1e-310j, None),
    ]
    path = tmp_path / "t.csv"
    write_csv(path, ["header"], ["s", "i", "f", "c", "b"], rows)
    want = "".join(",".join(map(cell, row)) + "\n" for row in rows)
    got = path.read_bytes().decode()
    assert got.split("\n", 3)[1:3] == ["# header", "s,i,f,c,b"]
    assert got.split("\n", 3)[3] == want


class TestSpectrumCommand:
    def test_sphere_spectrum_artifact(self, tmp_path):
        code, out = run_cli(
            tmp_path, {"command": "spectrum", "surface": SPHERE8, "L": 8}
        )
        assert code == 0
        rows = [
            l.split(",")
            for l in read_csv_body(out / "spectrum.csv")
            if l.startswith("Kstar")
        ]
        lams = np.array([float(r[2]) for r in rows])
        mults = np.array([int(r[3]) for r in rows])
        assert abs(lams[0] - 0.5) < 1e-6 and mults[0] == 1
        assert np.all(np.abs(lams[1:4] - 1.0 / 6.0) < 1e-6)
        assert np.all(mults[1:4] == 3)
        payload = json.loads((out / "spectrum.json").read_text())
        assert {s["operator"] for s in payload["sets"]} == {"Kstar", "M_curl", "Mstar_grad"}

    def test_reproducible_bodies(self, tmp_path):
        cfg = {"command": "spectrum", "surface": SPHERE8, "L": 8}
        code1, out1 = run_cli(tmp_path, cfg)
        (out1 / "spectrum.csv").rename(out1 / "first.csv")
        code2, out2 = run_cli(tmp_path, cfg)
        assert read_csv_body(out1 / "first.csv") == read_csv_body(out2 / "spectrum.csv")

    def test_one_eigensolve_per_run(self, tmp_path, monkeypatch):
        # the scalar set and both magnetic sets come from the grid's one np_spectrum
        from mnpspr import spectral

        calls = []
        solve = spectral._eigh_pencil
        monkeypatch.setattr(spectral, "_eigh_pencil", lambda *a: calls.append(a[2]) or solve(*a))
        code, _ = run_cli(tmp_path, {"command": "spectrum", "surface": SPHERE8, "L": 6})
        assert code == 0
        assert calls == ["negative single layer"]

    def test_json_round_trips_the_sets(self, tmp_path):
        """spectrum.json: one line with sorted keys, each slot's [n, m] once, and every
        set's eigenvalues and vectors bit for bit."""
        cfg = {"command": "spectrum", "surface": {"radius": PERT_RADIUS, "L_quad": 6}, "L": 5}
        code, out = run_cli(tmp_path, cfg)
        assert code == 0
        text = (out / "spectrum.json").read_text()
        assert text.count("\n") == 1 and text.endswith("}\n")
        payload = json.loads(text)
        assert payload["slots"] == np.stack(sh_degrees(5), axis=1).tolist()
        grid = RunConfig.from_dict(cfg).build_grid()
        sets = (np_spectrum(grid, 5), *mnp_spectra(grid, 5))
        assert len(payload["sets"]) == len(sets)
        for st, entry in zip(sets, payload["sets"]):
            assert sorted(entry) == ["eigenvalues", "gram", "operator", "potentials"]
            assert (entry["operator"], entry["gram"]) == (st.operator, st.gram)
            assert np.array_equal(entry["eigenvalues"], st.eigenvalues)
            vectors = np.zeros(st.vectors.shape[::-1], dtype=complex)
            vectors.real, vectors.imag = entry["potentials"]["re"], entry["potentials"]["im"]
            assert np.array_equal(vectors.T, st.vectors)


class TestValidation:
    def test_missing_L_names_field(self, tmp_path, capsys):
        code, out = run_cli(tmp_path, {"command": "spectrum", "surface": SPHERE8})
        assert code == 1
        err = json.loads((out / "error.json").read_text())
        assert err["error"]["field"] == "L"

    def test_unknown_command(self, tmp_path):
        code, out = run_cli(tmp_path, {"command": "explode"})
        assert code == 1
        err = json.loads((out / "error.json").read_text())
        assert err["error"]["field"] == "command"

    def test_unreadable_config(self, tmp_path):
        out = tmp_path / "o"
        out.mkdir()
        assert main(["--config", str(tmp_path / "absent.json"), "--out", str(out)]) == 1


class TestMieCheck:
    def test_report_passes(self, tmp_path):
        code, out = run_cli(tmp_path, {"command": "mie-check", "n_max": 2})
        assert code == 0
        payload = json.loads((out / "mie_check.json").read_text())
        assert payload["report"].startswith("8/8")

    def test_impossible_tolerance_exits_two(self, tmp_path):
        code, out = run_cli(
            tmp_path,
            {"command": "mie-check", "n_max": 2, "L_quad": 12},
            extra=["--tol", "1e-15"],
        )
        assert code == 2
        err = json.loads((out / "error.json").read_text())
        assert err["error"]["code"] == 2


class TestSphereModePlasmon:
    """A sphere mode's closed forms read no grid: it needs no surface or L, builds no
    grid and reports none."""

    CONFIG = {"command": "plasmon", "mode": {"l": 2, "n": 1, "m": 0},
              "points": [{"count": 4, "radius": 2.0}]}

    def test_runs_without_surface_or_L(self, tmp_path, monkeypatch):
        from mnpspr import cli

        monkeypatch.setattr(cli, "build_surface", None)  # a grid build would fail
        code, out = run_cli(tmp_path, self.CONFIG)
        assert code == 0
        lines = read_csv_body(out / "plasmon.csv")
        assert not any(l.startswith(("# quadrature:", "# L_quad:", "# L:")) for l in lines)
        assert len([l for l in lines if not l.startswith("#")]) == 5  # header + 4

    def test_surface_and_L_are_ignored(self, tmp_path):
        bodies = []
        for i, extra in enumerate(({}, {"surface": SPHERE8, "L": 8})):
            code, out = run_cli(tmp_path, {**self.CONFIG, **extra}, name=f"cfg{i}.json")
            assert code == 0
            bodies.append(read_csv_body(out / "plasmon.csv"))
        # the config hash too: it covers only the settings the run reads
        assert bodies[0] == bodies[1]

    def test_eigenmode_needs_a_surface(self, tmp_path):
        code, out = run_cli(tmp_path, {**self.CONFIG, "mode": {"index": 0}})
        assert code == 1
        assert json.loads((out / "error.json").read_text())["error"]["field"] == "surface"


class TestProvenance:
    def test_header_content(self, tmp_path):
        code, out = run_cli(
            tmp_path,
            {"command": "calderon", "surface": SPHERE8, "L": 8, "n_tests": 1},
            extra=["--tol", "2.5e-7", "--seed", "7"],
        )
        head = (out / "calderon.csv").read_text().splitlines()[:12]
        text = "\n".join(head)
        assert "rotated-polar-gl" in text
        assert "tolerance: 2.5e-07" in text
        assert "seed: 7" in text
        assert "config_hash:" in text
        assert "L_quad: 8" in text
        # spectrum reads neither setting, so its header names neither
        code, out = run_cli(
            tmp_path,
            {"command": "spectrum", "surface": SPHERE8, "L": 8},
            extra=["--tol", "2.5e-7", "--seed", "7"],
        )
        head = (out / "spectrum.csv").read_text().splitlines()[:12]
        assert not any(l.startswith(("# tolerance:", "# seed:")) for l in head)

    def test_header_reports_grid_degree(self, tmp_path):
        code, out = run_cli(
            tmp_path, {"command": "spectrum", "surface": {"sphere": 1.0, "L_quad": 12}, "L": 8}
        )
        assert code == 0
        head = (out / "spectrum.csv").read_text().splitlines()[:12]
        assert "# L_quad: 12" in head
        assert "# L: 8" in head
        assert "# quadrature: rotated-polar-gl (n_polar=30)" in head
        # mie-check takes no L, so its header has no L line
        lines = report_version_and_provenance(RunConfig.from_dict({"command": "mie-check"}))
        assert not any(line.startswith("L:") for line in lines)

    def test_provenance_lines(self):
        lines = report_version_and_provenance(
            RunConfig.from_dict({"command": "spectrum", "surface": {"sphere": 1.0}, "L": 8})
        )
        assert any("mnpspr" in l for l in lines)
        assert any("config_hash" in l for l in lines)

    @staticmethod
    def hash_line(tmp_path, config):
        code, out = run_cli(tmp_path, config)
        assert code == 0
        return next(l for l in (out / "spectrum.csv").read_text().splitlines()
                    if l.startswith("# config_hash: "))

    def test_config_hash_known_answer(self, tmp_path):
        # FNV-1a 64 of {"L":4,"command":"spectrum","surface":{"L_quad":6,"sphere":1.0}}:
        # a change of the fingerprint or of its canonical form fails here
        config = {"command": "spectrum", "surface": {"sphere": 1, "L_quad": 6}, "L": 4}
        assert self.hash_line(tmp_path, config) == "# config_hash: 68d9a49fb2b9df6c"

    def test_config_hash_covers_the_settings_read(self, tmp_path):
        config = {"command": "spectrum", "surface": {"sphere": 1.0}, "L": 6}
        line = self.hash_line(tmp_path, config)
        # spectrum reads neither entry, so its hash is unchanged
        unread = {**config, "tau_list": [0.7], "materials": {"delta": 0.3}}
        assert self.hash_line(tmp_path, unread) == line
        assert self.hash_line(tmp_path, {**config, "L": 5}) != line


class TestOtherCommands:
    def test_calderon(self, tmp_path):
        code, out = run_cli(
            tmp_path,
            {"command": "calderon", "surface": SPHERE8, "L": 8, "n_tests": 2},
        )
        assert code == 0
        payload = json.loads((out / "calderon.json").read_text())
        assert payload["worst_residual"] <= 1e-9

    def test_plasmon_sphere_mode(self, tmp_path):
        code, out = run_cli(
            tmp_path,
            {
                "command": "plasmon",
                "surface": SPHERE8,
                "L": 8,
                "mode": {"l": 2, "n": 1, "m": 0},
                "points": [{"count": 4, "radius": 2.0}],
            },
        )
        assert code == 0
        body = read_csv_body(out / "plasmon.csv")
        assert len([l for l in body if not l.startswith("#")]) == 5  # header + 4

    def test_scatter_sweep(self, tmp_path):
        code, out = run_cli(
            tmp_path,
            {
                "command": "scatter",
                "surface": SPHERE8,
                "L": 8,
                "materials": {"omega": 1.0},
                "tau_list": [0.5],
                "delta_list": [0.1, 0.05],
                "order": 2,
                "source": {"s": [0, 0, 6.0], "p": [1.0, 0, 0]},
            },
        )
        assert code == 0
        body = [l for l in read_csv_body(out / "scatter.csv") if not l.startswith("#")]
        assert body[0] == "tau,delta,indicator,solution_norm,condition"
        vals = [list(map(float, l.split(","))) for l in body[1:]]
        # indicator shrinks with delta at the resonant contrast
        assert vals[1][2] < vals[0][2]

    def test_decay_small(self, tmp_path):
        code, out = run_cli(
            tmp_path,
            {
                "command": "decay",
                "surface": SPHERE8,
                "L": 8,
                "eps": 0.5,
                "points": [{"count": 8, "radius": 3.0}],
            },
        )
        assert code == 0
        payload = json.loads((out / "decay.json").read_text())
        assert payload["plateau"] is True


class TestScatterDegree:
    """scatter assembles its system at its own L, below surface.L_quad too."""

    @staticmethod
    def scatter(tmp_path, radius, L_quad, L):
        where = tmp_path / f"L{L}"
        where.mkdir()
        config = {
            "command": "scatter",
            "surface": {"radius": radius, "L_quad": L_quad},
            "L": L,
            "tau_list": [0.5],
            "delta_list": [0.1],
            "order": 2,
        }
        code, out = run_cli(where, config)
        return code, (out / "scatter.csv").read_text().splitlines() if code == 0 else []

    def test_bodies_follow_L(self, tmp_path):
        radius = [[0, 0, float(np.sqrt(4.0 * np.pi)), 0.0], [2, 0, 0.05, 0.0]]
        runs = [self.scatter(tmp_path, radius, 6, L) for L in (3, 6)]
        assert [code for code, _ in runs] == [0, 0]
        rows = [[l for l in lines if not l.startswith("#")] for _, lines in runs]
        assert rows[0][0] == rows[1][0] == "tau,delta,indicator,solution_norm,condition"
        assert rows[0][1:] != rows[1][1:]

    def test_degree_below_grid_passes_the_guard(self, tmp_path):
        # at L = L_quad = 12 this surface fails the S Hermiticity guard (2.5e-6)
        radius = [
            [0, 0, float(np.sqrt(4.0 * np.pi)), 0.0], [2, 0, 0.05, 0.0],
            [2, 2, 0.03, 0.0], [2, -2, 0.03, 0.0],
        ]
        code, lines = self.scatter(tmp_path, radius, 12, 4)
        assert code == 0
        # the corrections are projected at L = 4, with n_polar = max(L + 12, 22)
        assert "# quadrature: rotated-polar-gl (n_polar=30), corrections (n_polar=22)" in lines


class TestConfigTypes:
    @staticmethod
    def error_field(tmp_path, config):
        code, out = run_cli(tmp_path, config)
        assert code == 1
        return json.loads((out / "error.json").read_text())["error"]["field"]

    def test_non_integer_L(self, tmp_path):
        cfg = {"command": "spectrum", "surface": SPHERE8, "L": 8.5}
        assert self.error_field(tmp_path, cfg) == "L"

    def test_non_integer_L_quad(self, tmp_path):
        cfg = {"command": "spectrum", "surface": {"sphere": 1.0, "L_quad": "x"}, "L": 8}
        assert self.error_field(tmp_path, cfg) == "surface.L_quad"

    def test_integer_string_L(self, tmp_path):
        cfg = {"command": "spectrum", "surface": {"sphere": 1.0, "L_quad": "8"}, "L": "8"}
        code, out = run_cli(tmp_path, cfg)
        assert code == 0
        assert not (out / "error.json").exists()

    def test_surface_not_an_object(self, tmp_path):
        cfg = {"command": "spectrum", "surface": [1.0], "L": 8}
        assert self.error_field(tmp_path, cfg) == "surface"


class TestHeaderReportsUsedSettings:
    OFFBOUNDARY = (
        "# off-boundary: surface-grid nodes beyond 3 x max_spacing, near rule (n_polar=320) inside"
    )

    def test_mie_check_grid_and_rule(self, tmp_path):
        code, out = run_cli(tmp_path, {"command": "mie-check", "n_max": 1, "L_quad": 12})
        assert code == 0
        head = (out / "mie_check.csv").read_text().splitlines()[:12]
        assert "# L_quad: 12" in head
        # mie-check assembles no operator: its one rule is the off-boundary one
        assert self.OFFBOUNDARY in head
        assert not any(l.startswith("# quadrature:") for l in head)
        # mie-check reads --tol but not --seed
        assert "# tolerance: default" in head
        assert not any(l.startswith("# seed:") for l in head)

    def test_mie_check_names_the_near_rule(self, tmp_path, monkeypatch):
        # at L_quad = 8 the probes at 0.5 x radius lie inside the 0.524 guard,
        # so they take the near rule at its polar order
        from mnpspr import potentials

        near = []
        real = potentials.near_singular_eval
        monkeypatch.setattr(
            potentials, "near_singular_eval", lambda g, x, n: near.append(n) or real(g, x, n)
        )
        cfg = {"command": "mie-check", "n_max": 2, "L_quad": 8}
        code, out = run_cli(tmp_path, cfg, extra=["--tol", "1e-3"])
        assert code == 0
        assert near == [potentials.NEAR_POLAR] * 4
        head = (out / "mie_check.csv").read_text().splitlines()[:12]
        assert any("n_polar=320" in l for l in head)

    def test_offboundary_commands_name_the_rule(self, tmp_path):
        configs = {
            "decay.csv": {"command": "decay", "surface": SPHERE8, "L": 6,
                          "points": [{"count": 2, "radius": 2.5}]},
            "plasmon.csv": {"command": "plasmon", "surface": SPHERE8, "L": 6,
                            "mode": {"index": 0}, "points": [{"count": 2, "radius": 2.5}]},
            "spectrum.csv": {"command": "spectrum", "surface": SPHERE8, "L": 6},
        }
        for i, (name, cfg) in enumerate(configs.items()):
            code, out = run_cli(tmp_path, cfg, name=f"cfg{i}.json")
            assert code == 0
            head = (out / name).read_text().splitlines()[:12]
            assert "# quadrature: rotated-polar-gl (n_polar=26)" in head
            # spectrum evaluates no field off the boundary
            assert (self.OFFBOUNDARY in head) == (name != "spectrum.csv")

    def test_scatter_correction_order(self, tmp_path):
        code, out = run_cli(
            tmp_path,
            {
                "command": "scatter",
                "surface": SPHERE8,
                "L": 8,
                "tau_list": [0.5],
                "delta_list": [0.1],
                "order": 2,
            },
        )
        assert code == 0
        head = (out / "scatter.csv").read_text().splitlines()[:12]
        assert "# quadrature: rotated-polar-gl (n_polar=26), corrections (n_polar=22)" in head


class TestMaterialsConfig:
    """materials is checked by decay, one of the commands that read it; the lists by scatter."""

    @pytest.mark.parametrize(
        "extra, field",
        [
            ({"materials": [1]}, "materials"),
            ({"materials": {"omega": "x"}}, "materials.omega"),
            ({"materials": {"omega": 0}}, "materials.omega"),
            ({"delta_list": 0.05}, "delta_list"),
            ({"tau_list": ["a"]}, "tau_list"),
            ({"tau_list": 0.5}, "tau_list"),
            ({"delta_list": [0.1, None]}, "delta_list"),
            ({"tau_list": [0.5, 1]}, "tau_list"),
            ({"tau_list": [-0.5]}, "tau_list"),
        ],
    )
    def test_rejected_with_field(self, tmp_path, extra, field):
        command = "decay" if field.startswith("materials") else "scatter"
        cfg = {"command": command, "surface": SPHERE8, "L": 8, **extra}
        code, out = run_cli(tmp_path, cfg)
        assert code == 1
        assert json.loads((out / "error.json").read_text())["error"]["field"] == field

    def test_unread_entries_are_ignored(self, tmp_path):
        """spectrum reads no contrasts and no materials: even invalid ones change nothing."""
        cfg = {"command": "spectrum", "surface": SPHERE8, "L": 6}
        bodies = []
        for i, extra in enumerate(({}, {"tau_list": [1.0], "materials": {"delta": -1}})):
            code, out = run_cli(tmp_path, {**cfg, **extra}, name=f"cfg{i}.json")
            assert code == 0
            payload = json.loads((out / "spectrum.json").read_text())
            del payload["provenance"], payload["timestamp"]
            csv = [l for l in (out / "spectrum.csv").read_text().splitlines() if l[0] != "#"]
            bodies.append((csv, payload))
        assert bodies[0] == bodies[1]

    def test_tau_is_not_a_setting(self, tmp_path):
        """materials.tau is ignored like any unlisted key: the contrasts come from tau_list."""
        cfg = {"command": "scatter", "surface": {"sphere": 1.0, "L_quad": 4}, "L": 4,
               "tau_list": [0.5], "delta_list": [0.1]}
        bodies = []
        for i, materials in enumerate(({}, {"tau": 3.0}, {"tau": "x"})):
            code, out = run_cli(tmp_path, {**cfg, "materials": materials}, name=f"cfg{i}.json")
            assert code == 0
            lines = (out / "scatter.csv").read_text().splitlines()
            bodies.append([l for l in lines if not l.startswith("#")])
        assert bodies[0] == bodies[1] == bodies[2]


class TestTypedParameters:
    """Every typed command entry is checked in RunConfig.from_dict: exit 1, field named."""

    @pytest.mark.parametrize(
        "command, extra, field",
        [
            ("decay", {"points": [{"count": "x", "radius": 3.0}]}, "points[0].count"),
            ("decay", {"points": [{"count": 4, "radius": 3.0}, {"count": 0, "radius": 1}]},
             "points[1].count"),
            ("decay", {"points": [{"count": 4, "radius": "3"}]}, "points[0].radius"),
            ("decay", {"points": [{"count": 4}]}, "points[0].radius"),
            ("decay", {"points": {"count": 4, "radius": 3.0}}, "points"),
            ("decay", {"eps": "0.5"}, "eps"),
            ("plasmon", {}, "mode"),
            ("plasmon", {"mode": [1, 1, 0]}, "mode"),
            ("plasmon", {"mode": {"l": "x", "n": 1, "m": 0}}, "mode.l"),
            ("plasmon", {"mode": {"l": 1, "n": 1.5, "m": 0}}, "mode.n"),
            ("plasmon", {"mode": {"l": 1, "n": 1}}, "mode.m"),
            ("plasmon", {"mode": {"l": 1, "n": 1, "m": 0, "radius": "1"}}, "mode.radius"),
            ("plasmon", {"mode": {"index": "a"}}, "mode.index"),
            ("plasmon", {"mode": {"index": 0}, "points": [{"count": None, "radius": 2}]},
             "points[0].count"),
            ("calderon", {"n_tests": "many"}, "n_tests"),
            ("scatter", {"order": "two"}, "order"),
            ("scatter", {"order": 3}, "order"),
            ("scatter", {"source": "dipole"}, "source"),
            ("scatter", {"source": {"s": ["a", 0, 6], "p": [1, 0, 0]}}, "source.s"),
            ("scatter", {"source": {"s": [0, 0, 6], "p": [1, 0]}}, "source.p"),
            ("scatter", {"source": {"s": [0, 0, 6]}}, "source.p"),
            ("mie-check", {"n_max": "x"}, "n_max"),
            ("mie-check", {"k": "1"}, "k"),
            ("mie-check", {"radius": None}, "radius"),
            ("spectrum", {"surface": {"sphere": "x", "L_quad": 4}}, "surface.sphere"),
            ("spectrum", {"surface": {"sphere": "1.0", "L_quad": 4}}, "surface.sphere"),
            ("spectrum", {"surface": {"sphere": -1, "L_quad": 4}}, "surface.sphere"),
            ("spectrum", {"surface": {"radius": "x", "L_quad": 4}}, "surface.radius"),
            ("spectrum", {"surface": {"radius": [], "L_quad": 4}}, "surface.radius"),
            ("spectrum", {"surface": {"radius": [[0, 0, "a", 0]], "L_quad": 4}},
             "surface.radius[0][2]"),
            ("spectrum", {"surface": {"radius": [[0, 0, 3.5]], "L_quad": 4}}, "surface.radius[0]"),
            ("spectrum", {"surface": {"radius": [[1, 3, 0.1, 0], [0, 0, 3.5, 0]], "L_quad": 4}},
             "surface.radius[0][1]"),
            ("spectrum", {"surface": {"radius": [[0, 0, 3.5449077018, 0], [2, -3, 0.1, 0]],
                                      "L_quad": 4}}, "surface.radius[1][1]"),
            ("spectrum", {"surface": {"radius": [[0, 0, 3.5449077018, 0], [1.7, 0, 0.1, 0]],
                                      "L_quad": 4}}, "surface.radius[1][0]"),
            ("spectrum", {"surface": {"radius": [[-1, 0, 3.5, 0]], "L_quad": 4}},
             "surface.radius[0][0]"),
            ("mie-check", {"k": 0}, "k"),
            ("mie-check", {"k": -1.0}, "k"),
            ("mie-check", {"n_max": 0}, "n_max"),
            ("mie-check", {"radius": 0}, "radius"),
            ("mie-check", {"radius": -1.0}, "radius"),
            ("mie-check", {"L_quad": 0}, "L_quad"),
            ("scatter", {"source": {"s": [0, 0, 0.5], "p": [1, 0, 0]}}, "source.s"),
            ("scatter", {"delta_list": [0.1, -0.1]}, "delta_list"),
            ("scatter", {"delta_list": [0.0]}, "delta_list"),
            ("calderon", {"n_tests": 0}, "n_tests"),
            ("decay", {"points": []}, "points"),
            ("plasmon", {"mode": {"index": 0}, "points": []}, "points"),
            ("spectrum", {"surface": {"sphere": 1.0, "radius": [[0, 0, 3.5449077018, 0]]}},
             "surface"),
            # the run's degree min(L_quad, n_max + 7) cannot hold the modes of degree n_max
            ("mie-check", {"n_max": 10, "L_quad": 8}, "n_max"),
        ],
    )
    def test_rejected_with_field(self, tmp_path, command, extra, field):
        base = {} if command == "mie-check" else {"surface": {"sphere": 1.0, "L_quad": 4}, "L": 4}
        code, out = run_cli(tmp_path, {"command": command, **base, **extra})
        assert code == 1
        assert json.loads((out / "error.json").read_text())["error"]["field"] == field


class TestPlasmonModeRange:
    """Out-of-range plasmon mode entries exit 1, write error.json and name the field."""

    SURFACE = {"surface": {"sphere": 1.0, "L_quad": 4}, "L": 4}  # 24 curl modes

    @pytest.mark.parametrize(
        "mode, field",
        [
            ({"l": 3, "n": 1, "m": 0}, "mode.l"),
            ({"l": 0, "n": 1, "m": 0}, "mode.l"),
            ({"l": 1, "n": 0, "m": 0}, "mode.n"),
            ({"l": 2, "n": -2, "m": 0}, "mode.n"),
            ({"l": 2, "n": 2, "m": 3}, "mode.m"),
            ({"l": 2, "n": 2, "m": -3}, "mode.m"),
            ({"l": 1, "n": 1, "m": 0, "radius": 0.0}, "mode.radius"),
            ({"index": 999}, "mode.index"),
            ({"index": 24}, "mode.index"),
            ({"index": -1}, "mode.index"),
        ],
    )
    def test_rejected_with_field(self, tmp_path, mode, field):
        cfg = {"command": "plasmon", **self.SURFACE, "mode": mode,
               "points": [{"count": 2, "radius": 2.0}]}
        code, out = run_cli(tmp_path, cfg)
        assert code == 1
        assert json.loads((out / "error.json").read_text())["error"]["field"] == field

    def test_rows_equal_plasmon_field(self, tmp_path):
        from mnpspr.plasmon import PlasmonMode, plasmon_field
        from mnpspr.sphharm import fibonacci_shell
        from mnpspr.surface import sphere_surface

        cfg = {"command": "plasmon", "surface": {"sphere": 1.0, "L_quad": 6}, "L": 6,
               "mode": {"index": 23},
               "points": [{"count": 3, "radius": 2.0}, {"count": 2, "radius": 0.2}]}
        code, out = run_cli(tmp_path, cfg)
        assert code == 0
        rows = [l.split(",") for l in read_csv_body(out / "plasmon.csv")
                if not l.startswith("#")][1:]
        mode = PlasmonMode.from_eigenmode(23, sphere_surface(1.0, 6), 6)
        pts = np.vstack([fibonacci_shell(3, 2.0), fibonacci_shell(2, 0.2)])
        assert len(rows) == len(pts)
        for row, x in zip(rows, pts):
            E, H = plasmon_field(mode, x)
            assert abs(float(row[5]) - np.linalg.norm(E)) <= 1e-12 * np.linalg.norm(E)
            assert abs(float(row[6]) - np.linalg.norm(H)) <= 1e-12 * np.linalg.norm(H)


class TestSettingsDefaults:
    """With only its required entries, a command's params hold the README's defaults."""

    OMEGA = {"materials": {"omega": 1.0}}
    GRID = {"surface": {"sphere": 1.0}, "L": 4}

    @pytest.mark.parametrize(
        "command, required, defaults",
        [
            ("spectrum", GRID, {}),
            ("calderon", GRID, {"n_tests": 10}),
            # a sphere mode reads no grid: its params hold no surface and no L
            ("plasmon", {"mode": {"l": 1, "n": 1, "m": 0}},
             {"mode": {"l": 1, "n": 1, "m": 0, "radius": 1.0},
              "points": [{"count": 20, "radius": 2.0}], **OMEGA}),
            ("decay", GRID, {"points": [{"count": 40, "radius": 3.0},
                                        {"count": 10, "radius": 0.25}], "eps": 0.5, **OMEGA}),
            ("scatter", GRID, {"order": 2, "source": {"s": [0.0, 0.0, 6.0], "p": [1.0, 0.0, 0.0]},
                               **OMEGA, "tau_list": [0.5], "delta_list": [0.1, 0.05, 0.025]}),
            ("mie-check", {}, {"n_max": 5, "k": 1.0, "radius": 1.0, "L_quad": 16}),
        ],
    )
    def test_params_hold_the_defaults(self, command, required, defaults):
        params = RunConfig.from_dict({"command": command, **required}).params
        assert params == {**required, **defaults}


class TestGridDegreeBound:
    """Both L_quad entries lie in [1, 60], checked before any grid is built."""

    @pytest.mark.parametrize(
        "config, field",
        [
            ({"command": "spectrum", "surface": {"sphere": 1.0, "L_quad": 100000}, "L": 4},
             "surface.L_quad"),
            ({"command": "spectrum", "surface": {"sphere": 1.0, "L_quad": 61}, "L": 4},
             "surface.L_quad"),
            ({"command": "mie-check", "L_quad": 61}, "L_quad"),
        ],
    )
    def test_above_the_bound_names_the_field(self, config, field):
        with pytest.raises(ConfigError) as err:
            RunConfig.from_dict(config)
        assert err.value.field == field

    def test_the_bound_keeps_every_accepted_L(self):
        cfg = RunConfig.from_dict(
            {"command": "spectrum", "surface": {"sphere": 1.0, "L_quad": 60}, "L": 60}
        )
        assert cfg.L_quad == 60
        assert RunConfig.from_dict({"command": "mie-check", "L_quad": 60}).L_quad == 60
        params = RunConfig.from_dict({"command": "mie-check", "n_max": 8, "L_quad": 8}).params
        assert params["n_max"] == 8


class TestCommandLineFlags:
    """A bad command line exits 1, like a bad config, with the error payload naming the flag."""

    CALDERON = {"command": "calderon", "surface": {"sphere": 1.0, "L_quad": 4}, "L": 4,
                "n_tests": 1}

    @staticmethod
    def stderr_error(capsys):
        return json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]

    @pytest.mark.parametrize(
        "argv, field",
        [
            (["--tol", "abc"], "--tol"),
            (["--seed", "x"], "--seed"),
            (["--tol"], "--tol"),
            (["--unknown", "1"], None),
            (["--seed", "-1e3"], "--seed"),  # not an integer
        ],
    )
    def test_usage_error_exits_one(self, tmp_path, capsys, argv, field):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(self.CALDERON))
        assert main(["--config", str(cfg), "--out", str(tmp_path), *argv]) == 1
        error = self.stderr_error(capsys)
        assert error["code"] == 1 and error["field"] == field
        assert (argv[0] if field is None else field) in error["message"]

    def test_missing_config_exits_one(self, tmp_path, capsys):
        assert main(["--out", str(tmp_path)]) == 1
        assert "--config" in self.stderr_error(capsys)["message"]

    @pytest.mark.parametrize(
        "extra, field",
        [
            (["--tol", "nan"], "--tol"),
            (["--tol", "inf"], "--tol"),
            (["--tol", "0"], "--tol"),
            (["--tol", "-0.5"], "--tol"),
            (["--seed", "-1"], "--seed"),
            # negative numbers that argparse's own pattern does not match
            (["--tol", "-1e-6"], "--tol"),
            (["--tol", "-inf"], "--tol"),
        ],
    )
    def test_bad_value_exits_one_with_error_json(self, tmp_path, capsys, extra, field):
        code, out = run_cli(tmp_path, self.CALDERON, extra=extra)
        assert code == 1
        assert json.loads((out / "error.json").read_text())["error"]["field"] == field
        error = self.stderr_error(capsys)
        assert error["field"] == field
        assert ("positive finite" if field == "--tol" else "at least 0") in error["message"]
        assert not (out / "calderon.csv").exists()

    def test_bad_value_error_json_in_a_new_out_directory(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(self.CALDERON))
        out = tmp_path / "new" / "out"
        assert main(["--config", str(cfg), "--out", str(out), "--tol", "nan"]) == 1
        assert json.loads((out / "error.json").read_text())["error"]["field"] == "--tol"


def test_decay_point_in_tube_exits_two(tmp_path):
    cfg = {"command": "decay", "surface": {"sphere": 1.0, "L_quad": 4}, "L": 4, "eps": 0.5,
           "points": [{"count": 4, "radius": 1.2}]}
    code, out = run_cli(tmp_path, cfg)
    assert code == 2
    error = json.loads((out / "error.json").read_text())["error"]
    assert error["type"] == "NearBoundaryError"
    assert "eps" in error["message"]


def test_decay_inside_the_guard_runs(tmp_path):
    # rho = 1 + 0.05 Re Y_2^0 at L = L_quad = 4: the grid rule's guard is 0.97, so
    # both points take the near rule; the 0.05-tube lets them through
    from mnpspr.plasmon import PlasmonMode, localization_scan
    from mnpspr.spectral import mnp_spectra
    from mnpspr.sphharm import fibonacci_shell
    from mnpspr.surface import perturbed_sphere

    cfg = {"command": "decay", "surface": {"radius": PERT_RADIUS, "L_quad": 4}, "L": 4,
           "eps": 0.05, "points": [{"count": 1, "radius": 1.3}, {"count": 1, "radius": 0.8}]}
    code, out = run_cli(tmp_path, cfg)
    assert code == 0
    grid = perturbed_sphere(0.05, 2, 0, 4)
    pts = np.vstack([fibonacci_shell(1, 1.3), fibonacci_shell(1, 0.8)])
    curl, _ = mnp_spectra(grid, 4)
    modes = [PlasmonMode.from_eigenmode(j, grid, 4) for j in range(len(curl))]
    report = localization_scan(modes, pts, 0.05)
    rows = [l.split(",") for l in read_csv_body(out / "decay.csv") if not l.startswith("#")][1:]
    assert len(rows) == report.e_point_mags.size
    for row, e, h in zip(rows, report.e_point_mags.ravel(), report.h_point_mags.ravel()):
        assert float(row[5]) == float(f"{e:.12e}") and float(row[6]) == float(f"{h:.12e}")


class TestPlasmonNearTheSurface:
    """plasmon by mode.index on shells inside the guard and on the surface; a sphere mode
    on its sphere and at its centre."""

    BASE = {"command": "plasmon", "surface": {"sphere": 1.0, "L_quad": 6}, "L": 4,
            "mode": {"index": 3}}

    def test_shell_at_distance_one_tenth(self, tmp_path):
        code, out = run_cli(tmp_path, {**self.BASE, "points": [{"count": 2, "radius": 1.1}]})
        assert code == 0
        rows = [l for l in read_csv_body(out / "plasmon.csv") if not l.startswith("#")][1:]
        assert len(rows) == 2
        assert all(np.isfinite(float(v)) for row in rows for v in row.split(",")[5:])

    def test_shell_on_the_surface_exits_two(self, tmp_path):
        code, out = run_cli(tmp_path, {**self.BASE, "points": [{"count": 2, "radius": 1.0}]})
        assert code == 2
        error = json.loads((out / "error.json").read_text())["error"]
        assert error["type"] == "NearBoundaryError"
        assert "floor" in error["message"]

    def test_sphere_mode_dist_reads_its_own_sphere(self, tmp_path):
        # the mode's sphere has radius 2, the surface entry radius 1: dist is the
        # exact distance to the mode's sphere, 2.5 - 2
        cfg = {"command": "plasmon", "surface": {"sphere": 1.0, "L_quad": 8}, "L": 6,
               "mode": {"l": 2, "n": 3, "m": 0, "radius": 2.0},
               "points": [{"count": 3, "radius": 2.5}]}
        code, out = run_cli(tmp_path, cfg)
        assert code == 0
        rows = [l.split(",") for l in read_csv_body(out / "plasmon.csv")
                if not l.startswith("#")][1:]
        assert len(rows) == 3
        for row in rows:  # the mode id holds commas: dist is the third column from the end
            assert abs(float(row[-3]) - 0.5) <= 1e-14

    def test_sphere_mode_on_its_sphere_exits_two(self, tmp_path):
        cfg = {"command": "plasmon", "surface": {"sphere": 1.0, "L_quad": 6}, "L": 4,
               "mode": {"l": 2, "n": 1, "m": 0}, "points": [{"count": 4, "radius": 1.0}]}
        code, out = run_cli(tmp_path, cfg)
        assert code == 2
        error = json.loads((out / "error.json").read_text())["error"]
        assert error["type"] == "NearBoundaryError"
        assert "sphere" in error["message"]

    def test_sphere_mode_at_its_centre_exits_one(self, tmp_path):
        cfg = {"command": "plasmon", "surface": {"sphere": 1.0, "L_quad": 6}, "L": 4,
               "mode": {"l": 2, "n": 1, "m": 0},
               "points": [{"count": 2, "radius": 2.0}, {"count": 2, "radius": 0.0}]}
        code, out = run_cli(tmp_path, cfg)
        assert code == 1
        error = json.loads((out / "error.json").read_text())["error"]
        assert error["field"] == "points[1].radius"
        assert "centre" in error["message"]


def test_guard_message_names_l_quad(tmp_path):
    # rho = 1 + 0.2 Re Y_2^2: the S Hermiticity guard fails at L = L_quad = 10
    radius = [[0, 0, float(np.sqrt(4.0 * np.pi)), 0.0], [2, 2, 0.1, 0.0], [2, -2, 0.1, 0.0]]
    cfg = {"command": "spectrum", "surface": {"radius": radius, "L_quad": 10}, "L": 10}
    code, out = run_cli(tmp_path, cfg)
    assert code == 2
    error = json.loads((out / "error.json").read_text())["error"]
    assert error["type"] == "AssemblyAccuracyError"
    assert "L_quad" in error["message"]
