"""Solvers for two-player stochastic reachability games whose observation
channel -- a bank of Boolean sensors -- can be partially jammed.

The package answers three questions about such a game:

* where the planning agent, treating jamming as random sensor failure,
  believes she can surely complete her task (`solve_p1`);
* where a jammer who knows her strategy can keep her from ever
  completing it (`solve_p2_safety`);
* where both hold at once -- the deception gap, which is the domain of
  the jammer's strategy (`solve_p2_safety` returns that strategy).
"""

from .game import (
    Game,
    GameValidationError,
    Observation,
    Sensor,
    SensorSelection,
    ValidationIssue,
    get_observation,
    observation_for_sensors,
    validate_game,
)
from .belief import (
    FINAL,
    BeliefMDP,
    BeliefNode,
    build_belief_mdp,
    move_label,
    node_key,
    node_label,
)
from .planner import (
    MultiStrategy,
    Removal,
    SolveReport,
    SoundnessVerdict,
    check_soundness,
    solve_p1,
)
from .attacker import (
    AttackStrategy,
    AttackerMDP,
    build_attacker_mdp,
    deception_gap,
    solve_p2_safety,
)
from .oracle import (
    CapExceededError,
    GeneratorParams,
    OracleResult,
    brute_force_win1,
    generate_spec,
)
from .sim import (
    FixedAttack,
    Outcome,
    PlayTrace,
    PromptAttack,
    Step,
    StrategyGapError,
    TableAttack,
    UniformRandomAttack,
    simulate,
)
from .specfile import (
    Diagnostic,
    GameSpecDocument,
    SpecParseError,
    parse_spec,
    serialize_spec,
)
from .dot import export_attacker_dot, export_belief_dot
from .pipeline import PipelineError, PipelineRun, ResultDocument, run_pipeline, run_stages

__version__ = "0.1.0"

BUNDLED_GAMES = ("fig1", "fig1_noattack", "fig1_nosense", "fig4")


def bundled_game_text(name: str) -> str:
    """Text of one of the game files shipped with the package."""
    from importlib.resources import files

    return files(__name__).joinpath("specs", f"{name}.game").read_text(encoding="utf-8")
