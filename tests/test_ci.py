"""The CI workflow against pyproject.toml: the oldest-python job of
.github/workflows/tier1.yml byte-compiles src/ on the lowest Python that
requires-python admits, so a syntax newer than that fails in CI.  The
workflow is read as text, so the check needs no YAML parser."""
import re
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def job_python(workflow: str, job: str) -> str:
    """The python-version that a job of a workflow's text sets up: the
    first one between the job's key and the next job's."""
    body = re.search(r"^  %s:\n(.*?)(?=^  \S|\Z)" % re.escape(job), workflow, re.M | re.S).group(1)
    return re.search(r"python-version:\s*[\"']?([\d.]+)", body).group(1)


def test_oldest_python_job_runs_the_lowest_admitted_python():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    # requires-python is one lower bound, ">=3.10"
    lowest = re.fullmatch(r">=\s*([\d.]+)", project["requires-python"]).group(1)
    workflow = (ROOT / ".github" / "workflows" / "tier1.yml").read_text(encoding="utf-8")
    assert job_python(workflow, "oldest-python") == lowest
