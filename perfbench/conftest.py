import os
import sys

# the benchmark imports the program from the checkout's src directory
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
