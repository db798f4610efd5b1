"""Batteryless BLE / light-based IoT node simulator and energy-budget solver."""

from .energy import (
    BLE_HARVESTER,
    BLE_PROFILE,
    EnergyProfile,
    FieldError,
    HarvesterCurve,
    LIOT_HARVESTER,
    LIOT_PROFILE,
    Stage,
    StageName,
    Supercap,
    active_totals,
    builtin_harvester,
    builtin_profile,
    implied_harvest_power,
    solve_sleep_time,
    stage_energy,
)
from .fsm import NodeConfig, NodeKind, NodeState, schedule_next_cycle
from .kernel import (
    ChannelModel,
    GatewayConfig,
    IlluminationProfile,
    RunResult,
    Scenario,
    deliver,
    per_frame_loss_for_session_pdr,
    run,
)
from .metrics import CycleRecord, NodeSummary, RunSummary
from .protocol import (
    BLE_SCRIPT,
    LIOT_SCRIPT,
    ExchangeSession,
    FailReason,
    Frame,
    FrameKind,
    LinkType,
    SessionOutcome,
    exchange_step,
    frame_airtime,
)
from .scenario import load_preset, load_scenario_file, PRESET_NAMES

__version__ = "0.1.0"
