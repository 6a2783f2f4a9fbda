import re

import pytest

from hinrec.config import STRATEGIES, ConfigError, RunConfig


def write(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return path


@pytest.mark.parametrize(("word", "value"), [("yes", True), ("off", False), ("TRUE", True), ("0", False)])
def test_bool_words(tmp_path, word, value):
    assert RunConfig.from_file(write(tmp_path, f"leak_guard = {word}\n")).leak_guard is value


def test_comments_and_blank_lines_are_ignored(tmp_path):
    text = "# a run\n\nrec_lr = 0.5  # faster\n   # indented comment\nfanout = 7\n"
    cfg = RunConfig.from_file(write(tmp_path, text))
    assert (cfg.rec_lr, cfg.fanout) == (0.5, 7)
    assert cfg == RunConfig(rec_lr=0.5, fanout=7)


def test_overrides_win_over_the_file(tmp_path):
    cfg = RunConfig.from_file(write(tmp_path, "seed = 3\nstrategy = greedy\nrec_epochs = 4\n"),
                              {"seed": 9, "strategy": "random"})
    assert (cfg.seed, cfg.strategy, cfg.rec_epochs) == (9, "random", 4)


def test_hash_ignores_run_identity_and_tracks_science():
    base = RunConfig()
    for identity in ({"seed": 5}, {"out": "elsewhere"}, {"dataset": "data/other"}):
        assert base.with_overrides(identity).config_hash() == base.config_hash(), identity
    assert base.with_overrides({"rec_lr": 0.02}).config_hash() != base.config_hash()


def test_unknown_key_names_file_and_line(tmp_path):
    path = write(tmp_path, "rec_lr = 0.1\n\nbogus = 1\n")
    with pytest.raises(ConfigError, match=rf"^{re.escape(str(path))}:3: unknown config key 'bogus'$"):
        RunConfig.from_file(path)


@pytest.mark.parametrize(
    ("line", "key"),
    [("rec_epochs = five", "rec_epochs"), ("rec_lr = fast", "rec_lr"),
     ("leak_guard = maybe", "leak_guard")],
)
def test_unparsable_value_names_file_line_and_key(tmp_path, line, key):
    path = write(tmp_path, f"# header\n{line}\n")
    with pytest.raises(ConfigError, match=rf"^{re.escape(str(path))}:2: config key '{key}': cannot parse"):
        RunConfig.from_file(path)


@pytest.mark.parametrize(
    "line",
    ["jobs = 2", "time_limit = 5", "heads = 2", "score_act = relu", "agg_act = elu", "fuse_act = tanh",
     "self_loops = false", "max_path_len = 6", "eval_ks = 1 10"],
)
def test_removed_settings_are_unknown_keys(tmp_path, line):
    path = write(tmp_path, line + "\n")
    key = line.split()[0]
    with pytest.raises(ConfigError, match=rf"^{re.escape(str(path))}:1: unknown config key '{key}'$"):
        RunConfig.from_file(path)


@pytest.mark.parametrize(
    ("line", "message"),
    [("strategy = bogus", "config key 'strategy': unknown strategy 'bogus', expected one of rms, greedy, random"),
     ("max_steps = 0", "config key 'max_steps': must be at least 1, got 0"),
     ("target_sync = 0", "config key 'target_sync': must be at least 1, got 0"),
     ("target_sync = -2", "config key 'target_sync': must be at least 1, got -2"),
     ("dqn_buffer = 0", "config key 'dqn_buffer': must be at least 1, got 0"),
     ("dqn_batch = 0", "config key 'dqn_batch': must be at least 1, got 0"),
     ("rec_batch = 0", "config key 'rec_batch': must be at least 1, got 0")],
)
def test_values_the_search_cannot_run_name_file_line_and_key(tmp_path, line, message):
    path = write(tmp_path, f"seed = 1\n{line}\n")
    with pytest.raises(ConfigError, match=rf"^{re.escape(str(path))}:2: {re.escape(message)}$"):
        RunConfig.from_file(path)


@pytest.mark.parametrize("override", [{"strategy": "bogus"}, {"max_steps": 0}, {"target_sync": 0}])
def test_overrides_are_checked_like_the_file(override):
    with pytest.raises(ConfigError):
        RunConfig().with_overrides(override)


@pytest.mark.parametrize(
    "line",
    [f"strategy = {name}" for name in STRATEGIES]
    + [f"{key} = 1" for key in ("max_steps", "target_sync", "dqn_buffer", "dqn_batch", "rec_batch")],
)
def test_values_the_search_can_run_are_accepted(tmp_path, line):
    key, value = (part.strip() for part in line.split("="))
    assert str(getattr(RunConfig.from_file(write(tmp_path, line + "\n")), key)) == value
