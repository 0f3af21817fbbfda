"""Paper-scale serving benchmark for the AccPar planner (see README.md)."""
