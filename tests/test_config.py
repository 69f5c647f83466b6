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
    assert http.max_context_chars == 400000
    assert http.max_retries == 5
    assert cfg["thresholds.l1"] == 0.1
    assert engine.store.root == Path("transcripts/forward")


def test_every_key_is_in_the_readme():
    section = readme_config_section()
    for key in KEYS:
        assert key.replace("engine.*.", "engine.forward.") in section, key


def test_comments_and_defaults(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text(
        "# full-line comment\n"
        "engine.forward.endpoint = https://llm.example/v1#fragment   # inline\n"
        "engine.forward.record = false\n"
        "optimizer.epochs = 7\t# tab before the hash\n",
        encoding="utf-8",
    )
    cfg = load_config(path)
    assert cfg["engine.forward.endpoint"] == "https://llm.example/v1#fragment"
    assert cfg["engine.forward.record"] is False
    assert cfg["optimizer.epochs"] == 7
    assert cfg["optimizer.batch_size"] == 3
    assert cfg["engine.backward.max_retries"] == 5
    assert Config()["thresholds.cosine"] == 0.99
    with pytest.raises(KeyError):
        Config()["optimizer.epoch"]


@pytest.mark.parametrize("lines, bad_line, key", [
    (["engine.forward.kind = http", "engine.forward.paralellism = 4"],
     2, "engine.forward.paralellism"),
    (["optimizer.epochs = 3", "", "optimizer.epochs = 4"], 3, "optimizer.epochs"),
    (["engine.forward.record = yes"], 1, "engine.forward.record"),
    (["# retries", "engine.forward.max_retries = five"], 2, "engine.forward.max_retries"),
])
def test_rejections_name_path_line_and_key(tmp_path, lines, bad_line, key):
    path = tmp_path / "bad.cfg"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ConfigError) as info:
        load_config(path)
    assert str(info.value).startswith(f"{path}:{bad_line}: {key}")


def test_engine_parallelism_is_not_a_key(tmp_path):
    # the runner's pool is the one concurrency bound; a config still setting
    # the old per-engine bound must drop the line
    path = tmp_path / "old.cfg"
    path.write_text("engine.forward.kind = http\nengine.forward.parallelism = 4\n",
                    encoding="utf-8")
    with pytest.raises(ConfigError) as info:
        load_config(path)
    assert str(info.value) == f"{path}:2: engine.forward.parallelism: unknown key"
