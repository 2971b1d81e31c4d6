import numpy as np
import pytest

from swarmplan.polar import EllipsoidShape
from swarmplan.scenario import (
    Obstacle,
    Scenario,
    ScenarioError,
    antipodal,
    generate_random,
    load_scenario,
    save_scenario,
    validate,
)

WS = (np.array([-2.0, -2.0, 0.0]), np.array([2.0, 2.0, 2.0]))


def test_single_agent_scenario_is_valid_with_distinct_endpoints():
    scenario = generate_random(42, 1, 0, WS)
    validate(scenario)
    start, goal = scenario.agents[0]
    assert np.linalg.norm(start - goal) > 0


def test_same_seed_reproduces_scenario(tmp_path):
    a = generate_random(7, 5, 8, WS)
    b = generate_random(7, 5, 8, WS)
    save_scenario(a, tmp_path / "a.yaml")
    save_scenario(b, tmp_path / "b.yaml")
    assert (tmp_path / "a.yaml").read_bytes() == (tmp_path / "b.yaml").read_bytes()


def test_generator_output_satisfies_invariants_over_many_seeds():
    for seed in range(100):
        scenario = generate_random(seed, 10, 16, WS)
        validate(scenario)  # raises on violation
        assert scenario.n_agents == 10
        assert len(scenario.obstacles) == 16


def test_generator_rejects_overcrowded_request():
    tiny = (np.array([-0.1, -0.1, 0.0]), np.array([0.1, 0.1, 0.2]))
    with pytest.raises(ScenarioError, match="overcrowded"):
        generate_random(0, 30, 0, tiny)


def test_generator_rejects_negative_obstacle_count():
    """A negative count used to mean no obstacles (the loop ran zero times)."""
    with pytest.raises(ScenarioError, match="negative"):
        generate_random(0, 2, -3)
    assert generate_random(0, 2, 0).obstacles == []


def test_generator_rejects_negative_seed():
    """A negative seed used to raise numpy's bare ``ValueError`` from ``PCG64``."""
    with pytest.raises(ScenarioError, match="seed"):
        generate_random(-1, 2, 0)
    assert generate_random(0, 2, 0).seed == 0


def test_antipodal_two_agents():
    scenario = antipodal(2, radius=1.5, height=1.0)
    (s0, g0), (s1, g1) = scenario.agents
    np.testing.assert_allclose(s0, [1.5, 0.0, 1.0], atol=1e-12)
    np.testing.assert_allclose(g0, [-1.5, 0.0, 1.0], atol=1e-12)
    np.testing.assert_allclose(s1[:2], -g1[:2], atol=1e-12)
    assert s1[2] == g1[2] == 1.0


def test_antipodal_four_agents_on_orthogonal_diameters():
    scenario = antipodal(4, radius=1.0, height=0.8)
    starts = np.array([s for s, _ in scenario.agents])
    np.testing.assert_allclose(starts[0][:2] @ starts[1][:2], 0.0, atol=1e-12)
    for start, goal in scenario.agents:
        np.testing.assert_allclose(0.5 * (start + goal)[:2], 0.0, atol=1e-12)


def test_antipodal_rejects_single_agent():
    with pytest.raises(ScenarioError):
        antipodal(1)


def test_validator_rejects_out_of_workspace():
    scenario = Scenario(seed=0, agents=[(np.array([5.0, 0, 1]), np.array([0.0, 0, 1]))], workspace=WS)
    with pytest.raises(ScenarioError, match="workspace"):
        validate(scenario)


def test_validator_rejects_a_scenario_without_agents():
    with pytest.raises(ScenarioError, match="at least one agent"):
        validate(Scenario(seed=0, agents=[], workspace=WS))


def test_validator_rejects_close_starts():
    scenario = Scenario(
        seed=0,
        agents=[
            (np.array([0.0, 0, 1]), np.array([1.0, 0, 1])),
            (np.array([0.05, 0, 1]), np.array([-1.0, 0, 1])),
        ],
        workspace=WS,
    )
    with pytest.raises(ScenarioError, match="too close"):
        validate(scenario)


def test_validator_rejects_goal_inside_obstacle():
    obstacle = Obstacle(
        center=np.array([1.0, 0.0, 1.0]),
        velocity=np.zeros(3),
        shape=EllipsoidShape(0.3, 0.3, 1e6),
        kind="cylinder",
    )
    scenario = Scenario(
        seed=0,
        agents=[(np.array([-1.0, 0, 1]), np.array([1.0, 0.05, 1]))],
        obstacles=[obstacle],
        workspace=WS,
    )
    with pytest.raises(ScenarioError, match="goal inside"):
        validate(scenario)


def test_yaml_round_trip(tmp_path):
    scenario = generate_random(3, 4, 5, WS)
    path = tmp_path / "scenario.yaml"
    save_scenario(scenario, path)
    loaded = load_scenario(path)
    assert loaded.seed == scenario.seed
    assert loaded.n_agents == scenario.n_agents
    for (s1, g1), (s2, g2) in zip(scenario.agents, loaded.agents):
        np.testing.assert_allclose(s1, s2)
        np.testing.assert_allclose(g1, g2)
    for o1, o2 in zip(scenario.obstacles, loaded.obstacles):
        np.testing.assert_allclose(o1.center, o2.center)
        assert o1.shape == o2.shape
        assert o1.kind == o2.kind


def test_load_rejects_malformed_file(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("seed: 1\nagents: [{start: [0, 0, 1]}]\n", encoding="utf-8")
    with pytest.raises(ScenarioError, match="malformed"):
        load_scenario(path)


def test_obstacle_rejects_non_finite_center_and_velocity():
    with pytest.raises(ScenarioError, match="finite"):
        Obstacle(center=np.array([np.nan, 0.0, 1.0]), velocity=np.zeros(3), shape=EllipsoidShape(0.3, 0.3, 1e6))
    with pytest.raises(ScenarioError, match="finite"):
        Obstacle(center=np.zeros(3), velocity=np.array([0.0, np.inf, 0.0]), shape=EllipsoidShape(0.3, 0.3, 1e6))


def test_validator_rejects_non_finite_obstacle_center_and_workspace():
    """A nan obstacle centre used to pass, and the mission reported nan ``min_obstacle`` every round."""
    scenario = generate_random(5, 2, 2, WS)
    scenario.obstacles[1].center = np.array([0.0, np.nan, 1.0])
    with pytest.raises(ScenarioError, match="obstacle 1"):
        validate(scenario)
    scenario = generate_random(5, 2, 0, WS)
    scenario.workspace = (WS[0], np.array([2.0, np.inf, 2.0]))
    with pytest.raises(ScenarioError, match="finite"):
        validate(scenario)


def test_load_rejects_non_finite_obstacle_center(tmp_path):
    path = tmp_path / "nan.yaml"
    path.write_text(
        "workspace: {min: [-2, -2, 0], max: [2, 2, 2]}\n"
        "agents:\n- {start: [0, 0, 1], goal: [1, 0, 1]}\n"
        "obstacles:\n- {center: [-1, .nan, 1], shape: [0.3, 0.3, 1]}\n",
        encoding="utf-8",
    )
    with pytest.raises(ScenarioError, match="finite"):
        load_scenario(path)


def test_obstacle_prediction_is_constant_velocity():
    obstacle = Obstacle(
        center=np.array([0.0, 0.0, 1.0]),
        velocity=np.array([0.2, -0.1, 0.0]),
        shape=EllipsoidShape(0.3, 0.3, 1e6),
    )
    track = obstacle.predicted_centers(5, 0.1)
    np.testing.assert_allclose(track[0], [0.0, 0.0, 1.0])
    np.testing.assert_allclose(track[4], [0.08, -0.04, 1.0])
