"""ScenarioSpec: typed coercion, dict round-trips, config bridging, hashing."""

from __future__ import annotations

import json

import pytest

from repro.experiments.presets import bench_config, paper_config
from repro.fl.config import ExperimentConfig
from repro.fl.history import History
from repro.io.history_io import history_to_dict
from repro.scenarios import (
    REGISTRY,
    RunStore,
    ScenarioSpec,
    coerce_field,
    config_overrides,
    config_to_dict,
)


class TestCoerceField:
    def test_bool_words(self):
        assert coerce_field("include_downlink", "false") is False
        assert coerce_field("include_downlink", "true") is True
        assert coerce_field("time_varying_links", "0") is False
        assert coerce_field("time_varying_links", "ON") is True
        assert coerce_field("include_downlink", False) is False

    def test_bool_rejects_garbage(self):
        with pytest.raises(ValueError, match="boolean"):
            coerce_field("include_downlink", "maybe")

    def test_optional_none_words(self):
        assert coerce_field("deadline_s", "none") is None
        assert coerce_field("workers", None) is None
        assert coerce_field("buffer_size", "null") is None

    def test_non_optional_rejects_none(self):
        with pytest.raises(ValueError, match="does not accept None"):
            coerce_field("rounds", None)
        with pytest.raises(ValueError, match="expects an int"):
            coerce_field("rounds", "none")  # not a None-word here: bad int

    def test_none_word_is_a_value_for_plain_str_fields(self):
        # "none" is a real value of contention (CONTENTION_MODES), not null.
        assert coerce_field("contention", "none") == "none"
        assert coerce_field("contention", "fair") == "fair"

    def test_numeric(self):
        assert coerce_field("rounds", "12") == 12
        assert isinstance(coerce_field("rounds", "12"), int)
        assert coerce_field("gamma", "3") == 3.0
        assert isinstance(coerce_field("gamma", "3"), float)
        assert coerce_field("deadline_s", "2.5") == 2.5

    def test_int_rejects_fractional(self):
        with pytest.raises(ValueError, match="int"):
            coerce_field("rounds", "2.5")

    def test_unknown_field_names_candidates(self):
        with pytest.raises(ValueError, match="unknown config field"):
            coerce_field("gammma", "3")


class TestSpecRoundTrip:
    def test_dict_round_trip_through_json(self):
        spec = ScenarioSpec(
            name="t",
            description="d",
            expected="e",
            tags=("a", "b"),
            overrides={"gamma": 3.0, "include_downlink": True, "deadline_s": None},
            axes={"gamma": 3.0},
        )
        clone = ScenarioSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert clone == spec

    def test_overrides_typed_at_construction(self):
        spec = ScenarioSpec(name="t", overrides={"rounds": "5", "include_downlink": "false"})
        assert spec.overrides == {"rounds": 5, "include_downlink": False}

    def test_bad_override_rejected(self):
        with pytest.raises(ValueError):
            ScenarioSpec(name="t", overrides={"nope": 1})

    def test_config_bridge(self):
        cfg = ExperimentConfig(rounds=7, algorithm="topk", compression_ratio=0.2)
        spec = ScenarioSpec.from_config(cfg, name="bridge")
        assert spec.overrides == {
            "rounds": 7, "algorithm": "topk", "compression_ratio": 0.2
        }
        assert spec.to_config() == cfg

    def test_config_overrides_empty_on_defaults(self):
        assert config_overrides(ExperimentConfig()) == {}

    def test_config_to_dict_covers_every_field(self):
        d = config_to_dict(ExperimentConfig())
        assert d["mode"] == "sync" and d["num_edges"] == 1 and "compressor" in d


class TestSpecHash:
    def test_same_resolved_config_same_hash(self):
        # Different names/prose, same experiment → one run-store cell.
        a = ScenarioSpec(name="a", description="x", overrides={"rounds": 5})
        b = ScenarioSpec(name="b", overrides={"rounds": 5, "mode": "sync"})
        assert a.spec_hash() == b.spec_hash()

    def test_any_field_change_changes_hash(self):
        a = ScenarioSpec(name="a", overrides={"rounds": 5})
        assert a.spec_hash() != a.with_overrides(seed=1).spec_hash()
        assert a.spec_hash() != a.with_overrides(rounds=6).spec_hash()

    def test_with_overrides_layers(self):
        a = ScenarioSpec(name="a", overrides={"rounds": 5, "gamma": 3.0})
        b = a.with_overrides(rounds=9)
        assert b.overrides == {"rounds": 9, "gamma": 3.0}
        assert a.overrides["rounds"] == 5  # original untouched


#: Run-store keys recorded before the five never-set config fields were
#: retired; ``spec_hash`` must keep producing them so stored cells resume.
_PINNED_SPEC_HASHES = {
    "paper-baseline": "07a8269d22ed3a7d",
    "mega-fleet": "e4c0c00a8bec8bf0",
    "wan-hierarchy": "e0d8093ccd19363c",
    "byzantine-storm": "85746d089c76092a",
    "diurnal-churn": "120297debd358eae",
    "drift-guard-async": "73aa2055028872ec",
    "edge-crash-recovery": "c7d109ce3f6a8528",
    "edge-quantized": "784909d6a1c6af3b",
    "extreme-noniid": "957cde29d868244d",
    "flaky-links": "e884639bb6116ebf",
    "lossy-uplink": "b67102db03ef0b10",
    "metro-contention": "358bde57de27bc6e",
    "poisoned-edge": "e4d7143c4841910c",
    "straggler-storm": "0439c384fb2f63f3",
}


class TestPinnedSpecHashes:
    def test_every_registered_scenario_is_pinned(self):
        assert sorted(REGISTRY.names()) == sorted(_PINNED_SPEC_HASHES)

    @pytest.mark.parametrize("name", sorted(_PINNED_SPEC_HASHES))
    def test_registered_scenario(self, name):
        assert REGISTRY.get(name).spec_hash() == _PINNED_SPEC_HASHES[name]

    def test_default_config(self):
        spec = ScenarioSpec.from_config(ExperimentConfig(), name="default")
        assert spec.spec_hash() == "0b26f4ca2fc256d9"

    def test_paper_config_cell(self):
        cfg = paper_config("synth-cifar10", "bcrs_opwa")
        assert ScenarioSpec.from_config(cfg, name="p").spec_hash() == "e85bdc155d7b379d"

    def test_bench_config_cell(self, monkeypatch):
        monkeypatch.delenv("REPRO_BENCH_SCALE", raising=False)
        cfg = bench_config("cifar10", "topk")
        assert ScenarioSpec.from_config(cfg, name="b").spec_hash() == "4d60790d5c22163c"

    def test_stored_cell_naming_a_retired_field_is_skipped(self, tmp_path):
        store = RunStore(tmp_path)
        kept = ScenarioSpec(name="kept", overrides={"rounds": 5})
        store.save(kept, History())
        retired = kept.to_dict()
        retired["name"] = "retired"
        retired["overrides"]["momentum"] = 0.5
        with pytest.raises(ValueError, match="unknown config field 'momentum'"):
            ScenarioSpec.from_dict(retired)
        stale = {
            "spec": retired,
            "spec_hash": "0" * 16,
            "history": history_to_dict(History()),
            "completed": True,
        }
        (tmp_path / f"{'0' * 16}.json").write_text(json.dumps(stale))
        assert [spec.name for spec, _ in store.load_all()] == ["kept"]
