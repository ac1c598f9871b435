"""Benchmark harness for the sfodlab CLI; entry point: perfbench/run.py."""
