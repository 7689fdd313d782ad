from .shell import run

run()
