from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_runs():
    # The example under "## Library" must run against the public API, so a
    # removed or renamed export breaks this test, not only the docs.
    section = README.read_text().split("\n## Library\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("\n```", 1)[0]
    exec(compile(code, f"{README.name}#Library", "exec"), {})
