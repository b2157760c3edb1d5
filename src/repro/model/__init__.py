"""Application model: tasks, messages, task graphs, systems, jobs."""

from repro.model.application import Application
from repro.model.graph import TaskGraph
from repro.model.jobs import Job, expand_jobs
from repro.model.message import Message, MessageKind
from repro.model.system import System
from repro.model.task import SchedulingPolicy, Task
from repro.model.times import TimeMT, ceil_div, check_time, lcm
from repro.model.validation import validate_system

__all__ = [
    "Application",
    "Job",
    "Message",
    "MessageKind",
    "SchedulingPolicy",
    "System",
    "Task",
    "TaskGraph",
    "TimeMT",
    "ceil_div",
    "check_time",
    "expand_jobs",
    "lcm",
    "validate_system",
]
