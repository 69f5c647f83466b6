import re
from pathlib import Path

import pytest

from alloyforge.config import KEYS, Config, ConfigError, load_config
from alloyforge.engines import HttpEngine, RecordingEngine, engine_from_config

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_config_section() -> str:
    text = README.read_text(encoding="utf-8")
    return text[text.index("## Configuration file"):text.index("## Data formats")]


def readme_ini_block() -> str:
    return re.search(r"```ini\n(.*?)```", readme_config_section(), re.S).group(1)


def test_readme_example_loads_verbatim(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # transcript_dir is relative
    path = tmp_path / "readme.cfg"
    path.write_text(readme_ini_block(), encoding="utf-8")
    cfg = load_config(path)
    engine = engine_from_config(cfg, "forward")
    assert isinstance(engine, RecordingEngine)
    assert isinstance(engine.inner, HttpEngine)
    http = engine.inner
    assert http.rate_limit.rate == 2
    assert http.max_retries == 5
    assert engine.store.root == Path("transcripts/forward/model=my-model")


def test_every_key_is_in_the_readme():
    section = readme_config_section()
    for key in KEYS:
        assert key.replace("engine.*.", "engine.forward.") in section, key


def test_comments_and_defaults(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text(
        "# full-line comment\n"
        "engine.forward.endpoint = https://llm.example/v1#fragment   # inline\n"
        "optimizer.epochs = 7\t# tab before the hash\n",
        encoding="utf-8",
    )
    cfg = load_config(path)
    assert cfg["engine.forward.endpoint"] == "https://llm.example/v1#fragment"
    assert cfg["engine.forward.transcript_dir"] is None
    assert cfg["optimizer.epochs"] == 7
    assert cfg["optimizer.batch_size"] == 3
    assert cfg["engine.backward.max_retries"] == 5
    with pytest.raises(KeyError):
        Config()["optimizer.epoch"]


@pytest.mark.parametrize("lines, bad_line, key", [
    (["engine.forward.model = m", "engine.forward.paralellism = 4"],
     2, "engine.forward.paralellism"),
    (["optimizer.epochs = 3", "", "optimizer.epochs = 4"], 3, "optimizer.epochs"),
    (["engine.forward.record = yes"], 1, "engine.forward.record"),  # retired: unknown key
    (["# retries", "engine.forward.max_retries = five"], 2, "engine.forward.max_retries"),
    (["pipeline.parallelism = 0"], 1, "pipeline.parallelism = '0': must be at least 1, got 0"),
    (["engine.forward.endpoint = http://llm.example/v1", "engine.forward.transcript_dir ="], 2,
     "engine.forward.transcript_dir = '': expected a directory path"),
    (["engine.forward.max_retries = -1"], 1,
     "engine.forward.max_retries = '-1': must be at least 0, got -1"),
    (["engine.evaluator.rate_limit_per_s = 0"], 1,
     "engine.evaluator.rate_limit_per_s = '0': must be above 0.0, got 0.0"),
    (["engine.forward.transcript_dir =   "], 1, "engine.forward.transcript_dir = ''"),
    (["optimizer.batch_size = 0"], 1, "optimizer.batch_size"),
    (["optimizer.epochs = 0"], 1, "optimizer.epochs"),
    (["optimizer.forward_temperature = -0.1"], 1,
     "optimizer.forward_temperature = '-0.1': must be at least 0.0, got -0.1"),
    (["pipeline.extract_temperature = nan"], 1, "pipeline.extract_temperature"),
    (["engine.forward.endpoint = localhost:8080/v1"], 1,
     "engine.forward.endpoint = 'localhost:8080/v1': expected an http:// or https:// URL"),
    (["engine.forward.endpoint = ftp://llm.example/v1"], 1, "engine.forward.endpoint"),
    (["engine.forward.endpoint = http:///v1"], 1, "engine.forward.endpoint"),
    (["engine.forward.endpoint = http://llm.example:port/v1"], 1, "engine.forward.endpoint"),
    (["engine.forward.endpoint ="], 1, "engine.forward.endpoint"),
    (["pipeline.extract_temperature = inf"], 1,
     "pipeline.extract_temperature = 'inf': must be finite, got inf"),
    (["engine.forward.rate_limit_per_s = inf"], 1,
     "engine.forward.rate_limit_per_s = 'inf': must be finite, got inf"),
])
def test_rejections_name_path_line_and_key(tmp_path, lines, bad_line, key):
    path = tmp_path / "bad.cfg"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ConfigError) as info:
        load_config(path)
    assert str(info.value).startswith(f"{path}:{bad_line}: {key}")


def test_bounds_admit_their_limits(tmp_path):
    path = tmp_path / "edge.cfg"
    path.write_text("pipeline.parallelism = 1\nengine.forward.max_retries = 0\n"
                    "engine.forward.rate_limit_per_s = 0.5\n"
                    "pipeline.extract_temperature = 0\n", encoding="utf-8")
    cfg = load_config(path)
    assert (cfg["pipeline.parallelism"], cfg["engine.forward.max_retries"]) == (1, 0)
    assert (cfg["engine.forward.rate_limit_per_s"], cfg["pipeline.extract_temperature"]) \
        == (0.5, 0.0)


def test_engine_parallelism_is_not_a_key(tmp_path):
    # the runner's pool is the one concurrency bound; a config still setting
    # the old per-engine bound must drop the line
    path = tmp_path / "old.cfg"
    path.write_text("engine.forward.endpoint = http://llm.example/v1\n"
                    "engine.forward.parallelism = 4\n", encoding="utf-8")
    with pytest.raises(ConfigError) as info:
        load_config(path)
    assert str(info.value) == f"{path}:2: engine.forward.parallelism: unknown key"


@pytest.mark.parametrize("line", [
    "engine.forward.kind = http", "engine.forward.record = true",
    "engine.forward.max_context_chars = 0", "optimizer.parallelism = -1",
])
def test_engine_kind_and_record_are_not_keys(tmp_path, line):
    # an endpoint and a transcript_dir say which engine a role is, the provider
    # says what fits its context, and pipeline.parallelism bounds every command;
    # a config still setting a retired key must drop the line
    path = tmp_path / "old.cfg"
    path.write_text(f"engine.forward.transcript_dir = store\n{line}\n", encoding="utf-8")
    with pytest.raises(ConfigError) as info:
        load_config(path)
    assert str(info.value) == f"{path}:2: {line.split(' =')[0]}: unknown key"
